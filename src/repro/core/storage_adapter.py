"""DnsStorage: one facade over the rotating store and the exact-TTL store.

The FillUp and LookUp workers don't care which expiry policy is in force;
they fill and query "the internal shared storage" (Section 3.1). This
adapter owns the IP-NAME and NAME-CNAME banks for whichever policy the
config selects, so the workers and both engines share one code path and
the Appendix-A.8 exact-TTL experiment swaps in without touching them.
"""

from __future__ import annotations

from itertools import compress
from typing import Collection, Dict, Optional

from repro.core.config import FlowDNSConfig
from repro.dns.columnar import DnsBatch
from repro.dns.rr import RRType
from repro.storage.exact_ttl import ExactTtlStore
from repro.storage.rotating import StoreBank

#: The raw wire value the columnar rtype column stores for CNAME rows.
_CNAME_TYPE = int(RRType.CNAME)


class DnsStorage:
    """The internal shared storage both worker kinds touch."""

    def __init__(self, config: FlowDNSConfig):
        self.config = config
        if config.exact_ttl:
            self._ip_exact = ExactTtlStore(
                sweep_interval=config.exact_ttl_sweep_interval,
                max_entries=config.max_entries_per_map,
            )
            self._cname_exact = ExactTtlStore(
                sweep_interval=config.exact_ttl_sweep_interval,
                max_entries=config.max_entries_per_map,
            )
            self._ip_bank = None
            self._cname_bank = None
        else:
            self._ip_bank = StoreBank(
                clear_up_interval=config.a_clear_up_interval,
                rotation_enabled=config.rotation_enabled,
                clear_up_enabled=config.clear_up_enabled,
                long_enabled=config.long_enabled,
                max_entries=config.max_entries_per_map,
            )
            self._cname_bank = StoreBank(
                clear_up_interval=config.c_clear_up_interval,
                rotation_enabled=config.rotation_enabled,
                clear_up_enabled=config.clear_up_enabled,
                long_enabled=config.long_enabled,
                max_entries=config.max_entries_per_map,
            )
            self._ip_exact = None
            self._cname_exact = None
        # Whichever policy is in force: both stores take put and report
        # entries and evictions alike.
        self._ip_store = self._ip_bank if self._ip_exact is None else self._ip_exact
        self._cname_store = self._cname_bank if self._cname_exact is None else self._cname_exact

    # --- fill side -----------------------------------------------------------

    def add_many_columns(self, batch: DnsBatch, sweep: bool = True) -> None:
        """Batched Algorithm-1 insert straight from DnsBatch columns.

        The one fill entry for both expiry policies. Every row is an
        A/AAAA or CNAME answer; the key is the answer text, the value
        the owner name. Address rows go to the IP-NAME store and CNAME
        rows to the NAME-CNAME store, each as parallel columns through
        ``put_rows``. The decoder interned every name, so equal name
        keys share one object.

        Under exact-TTL the rows are instead walked in arrival order,
        one put then one :meth:`tick` each: the per-record store+sweep
        cadence is what Appendix A.8 measures, so it is not amortised
        over the batch. ``sweep=False`` drops the ticks: the simulation's
        model of that sweeper starving while the engine is overloaded.
        """
        rtypes = batch.rtype
        columns = (batch.rdata_text, batch.name, batch.ttl, batch.ts)
        if self._ip_exact is not None:
            for rtype, answer, name, ttl, ts in zip(rtypes, *columns):
                if rtype == _CNAME_TYPE:
                    self._cname_exact.put(answer, name, ttl, ts)
                else:
                    self._ip_exact.put(answer, name, ttl, ts)
                if sweep:
                    self.tick(ts)
            return
        if _CNAME_TYPE not in rtypes:
            if rtypes:
                self._ip_store.put_rows(*columns)
            return
        # Split the columns by record family without a Python-level loop.
        is_address = list(map(_CNAME_TYPE.__ne__, rtypes))
        if any(is_address):
            self._ip_store.put_rows(*(list(compress(c, is_address)) for c in columns))
        is_cname = list(map(_CNAME_TYPE.__eq__, rtypes))
        self._cname_store.put_rows(*(list(compress(c, is_cname)) for c in columns))

    # --- lookup side ----------------------------------------------------------

    def lookup_ips(self, ip_texts: Collection[str], now: float) -> Dict[str, str]:
        """Batched first stage of Algorithm 2 over unique IPs.

        Returns ``{ip: queried name}`` for the hits; missing IPs are
        absent.
        """
        if self._ip_exact is not None:
            out: Dict[str, str] = {}
            for ip_text in ip_texts:
                name = self.lookup_ip(ip_text, now)
                if name is not None:
                    out[ip_text] = name
            return out
        return self._ip_bank.lookup_many(ip_texts)

    def lookup_ip(self, ip_text: str, now: float) -> Optional[str]:
        """IP → queried name (first stage of Algorithm 2)."""
        if self._ip_exact is not None:
            return self._ip_exact.lookup(ip_text, now)
        return self._ip_bank.lookup(ip_text)

    def lookup_cname(self, name: str, now: float) -> Optional[str]:
        """Name → the name that aliased to it (one CNAME chain step)."""
        if self._cname_exact is not None:
            return self._cname_exact.lookup(name, now)
        return self._cname_bank.lookup(name)

    def memoize_chain(self, name: str, final: str) -> None:
        """Step 7: cache a multi-hop chain result for later lookups."""
        if self._cname_exact is not None:
            return  # the exact-TTL variant has no safe TTL for a synthetic entry
        self._cname_bank.put_active(name, final)

    # --- maintenance ------------------------------------------------------------

    def tick(self, ts: float) -> int:
        """Time-driven maintenance; returns entries scanned (cost driver).

        For the rotating store this is the record-timestamp clear-up check
        (cheap); for the exact-TTL store it is the periodic full-map sweep
        whose cost Appendix A.8 blames for the meltdown.
        """
        if self._ip_exact is not None:
            scanned = self._ip_exact.maybe_sweep(ts)
            scanned += self._cname_exact.maybe_sweep(ts)
            return scanned
        self._ip_bank.maybe_clear_up(ts)
        self._cname_bank.maybe_clear_up(ts)
        return 0

    # --- accounting ---------------------------------------------------------------

    def total_entries(self) -> int:
        return self._ip_store.total_entries() + self._cname_store.total_entries()

    def entry_counts(self) -> Dict[str, Dict[str, int]]:
        return {
            "ip_name": self._ip_store.entry_counts(),
            "name_cname": self._cname_store.entry_counts(),
        }

    def evictions(self) -> int:
        """Entries dropped by the max_entries memory bound, both banks."""
        return self._ip_store.stats.evictions + self._cname_store.stats.evictions

    def overwrites(self) -> int:
        """IP-key overwrites (accuracy-relevant events; 0 for exact-TTL)."""
        if self._ip_bank is not None:
            return self._ip_bank.stats.overwrites
        return 0

    @property
    def stores(self) -> tuple:
        """The (IP-NAME, NAME-CNAME) stores of whichever policy is in force."""
        return (self._ip_store, self._cname_store)

    @property
    def ip_bank(self) -> Optional[StoreBank]:
        return self._ip_bank

    @property
    def cname_bank(self) -> Optional[StoreBank]:
        return self._cname_bank
