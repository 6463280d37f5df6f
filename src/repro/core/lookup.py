"""LookUp processing: flows against the shared storage (Section 3.3).

Implements Algorithm 2: ``deepLookUp`` the source IP in the IP-NAME maps,
then follow the NAME-CNAME chain (bounded by the loop limit, 6 in the
paper) towards the name the client originally asked for, memoising
multi-hop chains back into the Active CNAME map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import List, Optional

from repro.core.config import FlowDNSConfig
from repro.core.storage_adapter import DnsStorage
from repro.netflow.records import FlowBatch, FlowDirection, FlowRecord


@dataclass(frozen=True)
class CorrelationResult:
    """The outcome of looking up one flow.

    ``chain`` is the name sequence discovered (``[name, cname1, ...]``);
    ``service`` is the final element — the paper's "result" — or ``None``
    when the IP was not in the DNS maps.
    """

    flow: FlowRecord
    chain: tuple
    ts: float

    @property
    def matched(self) -> bool:
        return bool(self.chain)

    @property
    def service(self) -> Optional[str]:
        return self.chain[-1] if self.chain else None

    @property
    def dns_name(self) -> Optional[str]:
        """The direct IP→NAME hit, before any CNAME unrolling."""
        return self.chain[0] if self.chain else None


class CorrelationBatch:
    """Columnar outcome of correlating one :class:`FlowBatch`.

    ``chains`` is parallel to the batch's rows (empty tuple = unmatched).
    The ``matched``/``invalid``/``bytes_*`` attributes are this batch's
    stats deltas (already flushed into the processor's counters) so the
    engines can report without re-deriving them. ``CorrelationResult`` /
    ``FlowRecord`` objects are materialised only on demand via
    :meth:`results` — the write path formats rows straight from the
    columns and never needs them.
    """

    __slots__ = ("flows", "chains", "matched", "invalid", "bytes_in", "bytes_matched")

    def __init__(
        self,
        flows: FlowBatch,
        chains: List[tuple],
        matched: int = 0,
        invalid: int = 0,
        bytes_in: int = 0,
        bytes_matched: int = 0,
    ):
        self.flows = flows
        self.chains = chains
        self.matched = matched
        self.invalid = invalid
        self.bytes_in = bytes_in
        self.bytes_matched = bytes_matched

    def __len__(self) -> int:
        return len(self.chains)

    def matched_mask(self) -> List[bool]:
        return [bool(chain) for chain in self.chains]

    def results(self, only_matched: bool = False) -> List[CorrelationResult]:
        """Materialise per-flow results (sinks/analysis hand-off).

        With ``only_matched=True`` only matched flows pay for object
        construction — the batch's headline economy.
        """
        flows = self.flows
        ts = flows.ts
        out: List[CorrelationResult] = []
        append = out.append
        for i, chain in enumerate(self.chains):
            if only_matched and not chain:
                continue
            append(CorrelationResult(flows.record(i), chain, ts[i]))
        return out


@dataclass
class LookUpStats:
    """Counters for the Netflow side of the pipeline."""

    flows_in: int = 0
    invalid: int = 0
    matched: int = 0
    unmatched: int = 0
    bytes_in: int = 0
    bytes_matched: int = 0
    cname_steps: int = 0
    chains_memoized: int = 0
    loop_limit_hits: int = 0
    chain_lengths: dict = field(default_factory=dict)

    @property
    def correlation_rate(self) -> float:
        """Correlated bytes over total bytes — the paper's headline metric."""
        return self.bytes_matched / self.bytes_in if self.bytes_in else 0.0

    @property
    def match_rate(self) -> float:
        """Correlated flow count over total flows (secondary metric)."""
        total = self.matched + self.unmatched
        return self.matched / total if total else 0.0

    def note_chain(self, length: int) -> None:
        self.chain_lengths[length] = self.chain_lengths.get(length, 0) + 1


class LookUpProcessor:
    """Correlates flow records against the DNS storage (Algorithm 2)."""

    def __init__(self, storage: DnsStorage, config: FlowDNSConfig):
        self.storage = storage
        self.config = config
        self.stats = LookUpStats()

    def correlate_batch_columns(self, flows: FlowBatch) -> CorrelationBatch:
        """Steps 4–7 for one :class:`FlowBatch`.

        The lookup keys come straight from the batch's address text
        columns, with no ``FlowRecord``/``ipaddress``/``str()`` work per
        flow. The two expiry policies differ only in how a row's chain
        is found:

        * rotating store: each distinct lookup IP is resolved once per
          batch (in first-appearance order, at the first row's ``ts``)
          and its chain is shared across the batch's flows. So the
          chain-walk counters (``cname_steps``, ``chains_memoized``)
          count unique resolutions, and a multi-hop chain memoised
          mid-batch shortens later *batches* rather than later flows of
          the same batch;
        * exact-TTL: each valid row is resolved on its own, at its own
          ``ts``, in row order. Expiry depends on the flow's timestamp
          and a lookup deletes the expired entries it meets, so rows
          cannot share a resolution.

        The per-batch deltas also ride on the returned
        :class:`CorrelationBatch` so engines can report without
        re-deriving them.
        """
        n = len(flows)
        if n == 0:
            return CorrelationBatch(flows, [])
        direction = self.config.direction
        both = direction is FlowDirection.BOTH
        use_src = both or direction is FlowDirection.SOURCE
        ts_col = flows.ts
        bytes_col = flows.bytes_
        packets_col = flows.packets
        dst_col = flows.dst_ip_text

        # Pass 1: validity filter + primary lookup key per flow, read
        # straight off the address text columns. When no row has a
        # negative counter — every flow decoded from the wire, since the
        # formats carry unsigned counters — the key column itself serves
        # as the (read-only) primaries list and the per-row loop is two
        # C-speed min() scans.
        keys = flows.src_ip_text if use_src else dst_col
        invalid = 0
        if min(bytes_col) >= 0 and min(packets_col) >= 0:
            primaries: List[Optional[str]] = keys
        else:
            primaries = [None] * n
            for i in range(n):
                if bytes_col[i] < 0 or packets_col[i] < 0:  # step 2's flow filter
                    invalid += 1
                    continue
                primaries[i] = keys[i]

        # Pass 2: each valid row's chain; () for a miss or an invalid row.
        if self.config.exact_ttl:
            chains: List[tuple] = [()] * n
            resolve = self._resolve
            for i in range(n):
                text = primaries[i]
                if text is None:
                    continue
                ts = ts_col[i]
                chain = resolve(text, ts)
                if both and not chain:
                    # Destination fallback for a flow whose source missed.
                    chain = resolve(dst_col[i], ts)
                if chain:
                    chains[i] = tuple(chain)
        else:
            # One batched deepLookUp for the unique IPs, then one chain
            # walk per unique hit, in first-appearance order (chain
            # memoisation makes walk results order-sensitive).
            now = ts_col[0]
            if primaries is keys:
                unique = dict.fromkeys(primaries)
            else:
                unique = dict.fromkeys(text for text in primaries if text is not None)
            names = self.storage.lookup_ips(unique, now)
            chains_by_ip: dict = {}
            for text in unique:
                name = names.get(text)
                chains_by_ip[text] = tuple(self._walk_chain(name, now)) if name else ()
            chains = list(map(chains_by_ip.get, primaries, repeat((), n)))
            if both:
                # Destination fallback for flows whose source IP missed.
                fallbacks = {i: dst_col[i] for i, chain in enumerate(chains)
                             if not chain and primaries[i] is not None}
                fb_unique = dict.fromkeys(
                    dst for dst in fallbacks.values() if dst not in chains_by_ip
                )
                fb_names = self.storage.lookup_ips(fb_unique, now)
                for text in fb_unique:
                    name = fb_names.get(text)
                    chains_by_ip[text] = tuple(self._walk_chain(name, now)) if name else ()
                for i, dst in fallbacks.items():
                    chains[i] = chains_by_ip[dst]

        # Pass 3: the counters, flushed once. bytes_in counts every row,
        # valid or not.
        hits = list(filter(None, chains))
        matched = len(hits)
        bytes_in = sum(bytes_col)
        bytes_matched = sum(compress(bytes_col, chains))
        stats = self.stats
        stats.flows_in += n
        stats.bytes_in += bytes_in
        stats.invalid += invalid
        stats.matched += matched
        stats.unmatched += n - invalid - matched
        stats.bytes_matched += bytes_matched
        chain_lengths = stats.chain_lengths
        for length, count in Counter(map(len, hits)).items():
            chain_lengths[length] = chain_lengths.get(length, 0) + count
        return CorrelationBatch(flows, chains, matched, invalid, bytes_in, bytes_matched)

    def resolve(self, ip_text: str, now: float) -> List[str]:
        """Public Algorithm-2 resolution of one bare IP.

        Updates only the chain-walk counters, not the flow counters — the
        facade's ``service_of`` probe and other IP-only callers use this.
        """
        return self._resolve(ip_text, now)

    def _resolve(self, ip_text: str, now: float) -> List[str]:
        """IP → [name, cname...] per Algorithm 2; [] when nothing found."""
        name = self.storage.lookup_ip(ip_text, now)
        if name is None:
            return []
        return self._walk_chain(name, now)

    def _walk_chain(self, name: str, now: float) -> List[str]:
        """Follow the NAME-CNAME chain from a direct hit (Algorithm 2)."""
        chain = [name]
        seen = {name}
        loop_count = 0
        current = name
        while loop_count < self.config.cname_loop_limit:
            cname = self.storage.lookup_cname(current, now)
            self.stats.cname_steps += 1
            if cname is None:
                break
            if cname in seen:
                break  # defensive: a CNAME cycle in poisoned data
            chain.append(cname)
            seen.add(cname)
            current = cname
            loop_count += 1
        else:
            self.stats.loop_limit_hits += 1
        if len(chain) > 2 and self.config.memoize_cname_chains:
            # Step 7: "If the result is found with more than one look-up in
            # NAME-CNAME maps, we add it to NAME-CNAME_active for later use."
            self.storage.memoize_chain(chain[0], chain[-1])
            self.stats.chains_memoized += 1
        return chain
