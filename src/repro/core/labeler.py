"""Record labelling: which split a record belongs to.

Section 3.2 step 4: the FillUp worker "labels [the record] based on the IP
address. This label will be used as a hashmap index later on." The same
label function must be used by LookUp workers on flow source IPs so both
sides agree on the split. CNAME records carry no IP, so they are labelled
by a hash of the *answer name* — and lookups of a name use the same hash,
keeping fill and lookup consistent (the property Algorithm 1/2's shared
``label()`` notation implies).

The label is :func:`repro.storage.concurrent_map.key_hash` of the text
that is also the hashmap key, so the batched store paths compute it once
per key and take split and shard from it; these functions are the same
value for callers that label one record at a time.
"""

from __future__ import annotations

import ipaddress
from typing import Union

from repro.storage.concurrent_map import key_hash

IPLike = Union[str, ipaddress.IPv4Address, ipaddress.IPv6Address]


def ip_label(ip: IPLike) -> int:
    """Label an IP address (A/AAAA records and flow lookup addresses).

    Hashes the canonical address text — the map key itself — so IPv4 and
    IPv6 both spread evenly; a last-octet scheme would skew badly for CDN
    pools that allocate from a few /24s (an ablation in ``benchmarks``
    quantifies this). A ``str`` is taken to be canonical already, as every
    text the decoders produce is.
    """
    return key_hash(ip if type(ip) is str else str(ip))


def name_label(name: str) -> int:
    """Label a domain name (CNAME records and chain lookups)."""
    return key_hash(name)


def last_octet_label(ip: IPLike) -> int:
    """Alternative labeler: the address's final byte.

    Cheaper than hashing but skewed when providers number hosts densely;
    kept as an ablation comparator, not used by the default pipeline.
    """
    if not isinstance(ip, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        ip = ipaddress.ip_address(ip)
    return ip.packed[-1]
