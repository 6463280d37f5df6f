"""Storage substrate: the hashmaps at the heart of FlowDNS.

* :class:`StoreBank` — the Active / Inactive / Long triple with
  buffer rotation and clear-up (Section 3.1, Table 1), one per record
  family;
* :class:`ExactTtlStore` — the per-record TTL-expiry store the paper
  rejects in Appendix A.8, kept here so the A.8 experiment can be run.

The paper shards its maps over locks so that many Go workers can write
at once. Here one thread — the engine's event loop — owns the store, so
every tier is one plain dict; a snapshot copies the tiers on that thread
before anything else touches them.
"""

from repro.storage.rotating import RotatingStoreStats, StoreBank
from repro.storage.exact_ttl import ExactTtlStore
from repro.storage.snapshot import load_storage

__all__ = [
    "RotatingStoreStats",
    "StoreBank",
    "ExactTtlStore",
    "load_storage",
]
