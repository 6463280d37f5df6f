"""Shared fixtures for the paper reproductions.

The expensive simulated deployments run once per session; each figure's
test consumes the shared reports, prints its ``paper= measured=`` rows
(visible under ``pytest -s``) and asserts the paper's claim.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.analysis import ServiceBytesCollector, run_variant
from repro.bgp.rib import Rib
from repro.core.variants import FIGURE3_VARIANTS, Variant
from repro.workloads.isp import large_isp

#: One simulated day at the large ISP (headline + Figures 4, 5, 6).
DAY = 86400.0
#: Half a day per ablation variant (Figures 3 and 7).
HALF_DAY = 43200.0


class BgpSeriesCollector:
    """on_result hook: per-(service, origin AS, hour) byte series."""

    def __init__(self, rib: Rib, services, t0: float = 0.0, bucket: float = 3600.0):
        self.rib = rib
        self.services = set(services)
        self.t0 = t0
        self.bucket = bucket
        self.buckets = defaultdict(int)  # (service, asn, hour) -> bytes

    def __call__(self, result):
        if not result.matched or result.service not in self.services:
            return
        asn = self.rib.origin_asn(result.flow.src_ip)
        if asn is None:
            return
        hour = int((result.flow.ts - self.t0) // self.bucket)
        self.buckets[(result.service, asn, hour)] += result.flow.bytes_

    def totals_by_asn(self, service):
        out = defaultdict(int)
        for (svc, asn, _hour), nbytes in self.buckets.items():
            if svc == service:
                out[asn] += nbytes
        return dict(out)

    def dominant_asns(self, service, coverage=0.95):
        totals = sorted(self.totals_by_asn(service).items(), key=lambda kv: kv[1], reverse=True)
        grand = sum(v for _, v in totals)
        chosen = []
        acc = 0
        for asn, nbytes in totals:
            chosen.append(asn)
            acc += nbytes
            if grand and acc / grand >= coverage:
                break
        return chosen


class _Tee:
    """Fan one on_result hook out to several collectors."""

    def __init__(self, *hooks):
        self.hooks = hooks

    def __call__(self, result):
        for hook in self.hooks:
            hook(result)


@pytest.fixture(scope="session")
def main_day():
    """Main variant, one simulated day at the large ISP, with collectors."""
    workload = large_isp(seed=7, duration=DAY)
    service_bytes = ServiceBytesCollector()
    rib = Rib.from_entries(workload.hosting.rib_entries())
    bgp = BgpSeriesCollector(
        rib, services=("s1-streaming.tv", "s2-streaming.tv"), t0=workload.t0
    )
    run = run_variant(
        workload, Variant.MAIN, sample_interval=3600.0, on_result=_Tee(service_bytes, bgp)
    )
    return {
        "workload": workload,
        "report": run.report,
        "service_bytes": service_bytes,
        "bgp": bgp,
        "rib": rib,
    }


class RecordedWorkload:
    """A workload whose DNS and flow streams are generated once and then
    replayed, unchanged, to every run; everything else is the workload's.

    The streams are a pure function of the workload's seed, so replaying
    the stored records equals regenerating them.
    """

    def __init__(self, workload):
        self._workload = workload
        self._dns = list(workload.dns_records())
        self._flows = list(workload.flow_records())

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def dns_records(self):
        return iter(self._dns)

    def flow_records(self):
        return iter(self._flows)


@pytest.fixture(scope="session")
def variant_runs():
    """All Figure 3 variants over identical half-day replays."""
    workload = RecordedWorkload(large_isp(seed=7, duration=HALF_DAY))
    return {
        variant: run_variant(workload, variant, sample_interval=3600.0).report
        for variant in FIGURE3_VARIANTS
    }


def print_rows(title, rows):
    """Uniform paper-vs-measured output block."""
    print()
    print(f"== {title} ==")
    for row in rows:
        print(row)
