"""Property-based tests on workload invariants.

The whole evaluation rests on the workload generators; these properties
must hold for *any* seed, not just the benchmarks' pinned ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.cdn import CdnHosting, default_providers
from repro.workloads.domains import build_universe
from repro.workloads.isp import IspWorkload
from repro.workloads.ttl_model import TtlModel

_seed = st.integers(min_value=0, max_value=2**31 - 1)


def _small_workload(seed):
    universe = build_universe(seed, n_benign=60)
    hosting = CdnHosting(universe, default_providers(), seed=seed, ttl_model=TtlModel())
    return IspWorkload(
        universe, hosting, seed=seed, duration=600.0, resolution_rate=1.5, warmup=300.0
    )


@given(_seed)
@settings(max_examples=10, deadline=None)
def test_streams_time_ordered_for_any_seed(seed):
    workload = _small_workload(seed)
    dns = list(workload.dns_records())
    flows = list(workload.flow_records())
    assert all(a.ts <= b.ts for a, b in zip(dns, dns[1:]))
    assert all(a.ts <= b.ts for a, b in zip(flows, flows[1:]))


@given(_seed)
@settings(max_examples=10, deadline=None)
def test_streams_reproducible_for_any_seed(seed):
    a = _small_workload(seed)
    b = _small_workload(seed)
    assert list(a.dns_records()) == list(b.dns_records())
    assert list(a.flow_records()) == list(b.flow_records())


@given(_seed)
@settings(max_examples=10, deadline=None)
def test_flow_bounds_for_any_seed(seed):
    workload = _small_workload(seed)
    end = workload.t0 + workload.duration
    for flow in workload.flow_records():
        assert workload.t0 <= flow.ts < end
        assert flow.bytes_ >= 0
        assert 0 <= flow.src_port <= 65535


@given(_seed)
@settings(max_examples=10, deadline=None)
def test_dns_records_well_formed_for_any_seed(seed):
    workload = _small_workload(seed)
    for record in workload.dns_records():
        assert record.ttl >= 0
        assert record.query
        assert record.answer
        assert record.is_address or record.is_cname


@given(_seed)
@settings(max_examples=6, deadline=None)
def test_universe_invariants_for_any_seed(seed):
    universe = build_universe(seed, n_benign=80)
    names = [s.name for s in universe.services]
    assert len(names) == len(set(names))  # unique names
    assert all(s.popularity >= 0 and s.byte_weight >= 0 for s in universe.services)
    # Streaming anchors always present.
    assert "s1-streaming.tv" in names and "s2-streaming.tv" in names
    # Abuse universe non-empty, byte share small.
    abuse_bytes = sum(s.byte_weight for s in universe.services if s.category != "benign")
    total = sum(s.byte_weight for s in universe.services)
    assert 0 < abuse_bytes / total < 0.02
