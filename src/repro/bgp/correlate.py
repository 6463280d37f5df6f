"""Join FlowDNS output with BGP: the Figure 4 analysis.

Figure 4 plots, for streaming services S1 and S2, the cumulative traffic
volume contributed by each *source AS* over time. The input here is the
stream of correlation results (or parsed output rows) plus a RIB; the
output is per-(service, ASN) byte series bucketed by hour.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.rib import Rib
from repro.core.lookup import CorrelationResult


@dataclass
class ServiceAsSeries:
    """Per-source-AS byte series for one service."""

    service: str
    bucket_seconds: float
    #: (asn, bucket_index) → bytes
    buckets: Dict[Tuple[int, int], int] = field(default_factory=lambda: defaultdict(int))
    unrouted_bytes: int = 0

    def add(self, asn: Optional[int], bucket: int, nbytes: int) -> None:
        if asn is None:
            self.unrouted_bytes += nbytes
        else:
            self.buckets[(asn, bucket)] += nbytes

    def total_by_asn(self) -> Dict[int, int]:
        out: Dict[int, int] = defaultdict(int)
        for (asn, _bucket), nbytes in self.buckets.items():
            out[asn] += nbytes
        return dict(out)

    def dominant_asns(self, coverage: float = 0.95) -> List[int]:
        """The smallest AS set carrying ``coverage`` of the service's bytes.

        Figure 4's headline observation is the *size* of this set: one AS
        for S1, two for S2.
        """
        totals = sorted(self.total_by_asn().items(), key=lambda kv: kv[1], reverse=True)
        grand = sum(v for _, v in totals)
        out: List[int] = []
        acc = 0
        for asn, nbytes in totals:
            out.append(asn)
            acc += nbytes
            if grand > 0 and acc / grand >= coverage:
                break
        return out


def correlate_with_bgp(
    results: Iterable[CorrelationResult],
    rib: Rib,
    services: Iterable[str],
    bucket_seconds: float = 3600.0,
    t0: float = 0.0,
    service_matcher=None,
) -> Dict[str, ServiceAsSeries]:
    """Aggregate correlated traffic per (service, source AS, hour).

    ``service_matcher(result_service, wanted)`` decides whether an output
    row belongs to a wanted service; the default is exact match on the
    resolved name.
    """
    wanted = list(services)
    if service_matcher is None:
        service_matcher = lambda resolved, target: resolved == target
    out = {s: ServiceAsSeries(service=s, bucket_seconds=bucket_seconds) for s in wanted}
    for result in results:
        if not result.matched:
            continue
        resolved = result.service
        for target in wanted:
            if service_matcher(resolved, target):
                asn = rib.origin_asn(result.flow.src_ip)
                bucket = int((result.flow.ts - t0) // bucket_seconds)
                out[target].add(asn, bucket, result.flow.bytes_)
                break
    return out
