"""Tests for the ISP workload generator."""

import hashlib
from itertools import islice

import pytest

from repro.util.errors import ConfigError
from repro.workloads.isp import (
    ISP_RESOLVER_IPS,
    PUBLIC_RESOLVER_IPS,
    IspWorkload,
    LagModel,
    large_isp,
    small_isp,
)


class TestDeterminism:
    def test_dns_stream_reproducible(self, tiny_workload):
        a = list(tiny_workload.dns_records())
        b = list(tiny_workload.dns_records())
        assert a == b

    def test_flow_stream_reproducible(self, tiny_workload):
        a = list(tiny_workload.flow_records())
        b = list(tiny_workload.flow_records())
        assert a == b

    def test_seed_changes_streams(self, tiny_universe, tiny_hosting):
        w1 = IspWorkload(tiny_universe, tiny_hosting, seed=1, duration=600.0,
                         resolution_rate=1.0, warmup=0.0)
        w2 = IspWorkload(tiny_universe, tiny_hosting, seed=2, duration=600.0,
                         resolution_rate=1.0, warmup=0.0)
        assert list(w1.dns_records()) != list(w2.dns_records())


    def test_large_isp_corpus_is_pinned(self):
        """The corpus is a function of the seed alone — in particular not
        of the storage layer's hash (the "interactive" coin once was). The
        first 20 000 flows of the ablation benchmarks' workload, replies
        on the non-web ports included, digest to a fixed value."""
        workload = large_isp(seed=37, duration=6 * 3600.0, n_benign=600)
        digest = hashlib.sha256()
        replies = 0
        for f in islice(workload.flow_records(), 20000):
            digest.update(
                f"{f.ts!r}|{f.src_ip}|{f.dst_ip}|{f.src_port}|{f.dst_port}|"
                f"{f.protocol}|{f.packets}|{f.bytes_}\n".encode()
            )
            replies += f.dst_port in (1194, 88)
        assert replies == 8  # the coin's flows are inside the window
        assert digest.hexdigest() == (
            "80fbe3cbc836776c08548dde847f2edaa5905a469ca27d4f5139c7bf0108b73c"
        )


class TestOrdering:
    def test_dns_records_time_ordered(self, tiny_workload):
        records = list(tiny_workload.dns_records())
        assert all(a.ts <= b.ts for a, b in zip(records, records[1:]))

    def test_flow_records_time_ordered(self, tiny_workload):
        flows = list(tiny_workload.flow_records())
        assert all(a.ts <= b.ts for a, b in zip(flows, flows[1:]))

    def test_flows_start_at_t0(self, tiny_workload):
        flows = list(tiny_workload.flow_records())
        assert min(f.ts for f in flows) >= tiny_workload.t0

    def test_dns_starts_in_warmup(self, tiny_workload):
        records = list(tiny_workload.dns_records())
        assert min(r.ts for r in records) < tiny_workload.t0

    def test_everything_ends_by_duration(self, tiny_workload):
        end = tiny_workload.t0 + tiny_workload.duration
        assert max(f.ts for f in tiny_workload.flow_records()) < end
        assert max(r.ts for r in tiny_workload.dns_records()) < end


class TestComposition:
    def test_public_resolver_flows_present(self, tiny_workload):
        flows = [f for f in tiny_workload.flow_records() if f.dst_port in (53, 853)]
        assert flows
        publics = [f for f in flows if str(f.dst_ip) in PUBLIC_RESOLVER_IPS]
        isps = [f for f in flows if str(f.dst_ip) in ISP_RESOLVER_IPS]
        assert isps and len(isps) > len(publics)

    def test_background_sources_disjoint_from_pools(self, tiny_workload):
        backgrounds = [
            f for f in tiny_workload.flow_records()
            if str(f.src_ip).startswith("172.16.")
        ]
        assert backgrounds

    def test_clients_in_cgnat_space(self, tiny_workload):
        flows = [f for f in tiny_workload.flow_records() if f.src_port == 443]
        assert flows
        assert all(str(f.dst_ip).startswith("100.64.") for f in flows)

    def test_invisible_resolutions_have_flows_but_no_dns(self, tiny_universe, tiny_hosting):
        w = IspWorkload(tiny_universe, tiny_hosting, seed=9, duration=1200.0,
                        resolution_rate=2.0, warmup=0.0, public_resolver_fraction=0.5)
        resolutions = list(w._resolutions())
        invisible = [r for r in resolutions if not r.visible]
        assert invisible
        dns_count = sum(1 for _ in w.dns_records())
        assert dns_count < sum(len(r.records()) for r in resolutions)


class TestLagModel:
    def test_immediate_lags_short(self):
        import random

        model = LagModel(immediate_fraction=1.0, cached_fraction=0.0)
        rng = random.Random(0)
        assert all(model.sample(rng, 300) <= 600 for _ in range(100))

    def test_stale_lags_beyond_ttl(self):
        import random

        model = LagModel(immediate_fraction=0.0, cached_fraction=0.0)
        rng = random.Random(0)
        for _ in range(100):
            assert model.sample(rng, 300) >= 300

    def test_stale_capped(self):
        import random

        model = LagModel(immediate_fraction=0.0, cached_fraction=0.0)
        rng = random.Random(0)
        assert all(model.sample(rng, 300) <= model.stale_cap for _ in range(500))

    def test_origin_profile_more_stale(self):
        import random

        model = LagModel()
        rng = random.Random(1)
        normal = sum(model.sample(rng, 600) for _ in range(2000)) / 2000
        rng = random.Random(1)
        origin = sum(model.sample(rng, 600, origin=True) for _ in range(2000)) / 2000
        assert origin > normal


class TestPresets:
    def test_large_isp_builds(self):
        w = large_isp(seed=1, duration=600.0, n_benign=100)
        assert w.cost_params.rate_scale > 1000
        assert w.cost_params.dns_rate_scale > 1000
        assert w.worker_count == 60

    def test_small_isp_builds(self):
        w = small_isp(seed=1, duration=600.0, n_benign=100)
        assert w.worker_count == 8
        # flow:dns ratio near 1.2 at the small ISP vs 13 at the large one.
        assert w.cost_params.rate_scale < large_isp(seed=1, duration=600.0, n_benign=100).cost_params.rate_scale

    def test_overrides_respected(self):
        w = large_isp(seed=1, duration=600.0, n_benign=100, background_byte_fraction=0.3)
        assert w.background_byte_fraction == 0.3

    def test_validation(self, tiny_universe, tiny_hosting):
        with pytest.raises(ConfigError):
            IspWorkload(tiny_universe, tiny_hosting, seed=0, duration=0, resolution_rate=1)
        with pytest.raises(ConfigError):
            IspWorkload(tiny_universe, tiny_hosting, seed=0, duration=10, resolution_rate=0)
        with pytest.raises(ConfigError):
            IspWorkload(tiny_universe, tiny_hosting, seed=0, duration=10,
                        resolution_rate=1, background_byte_fraction=1.0)


class TestByteComposition:
    def test_background_byte_share_near_target(self, tiny_universe, tiny_hosting):
        w = IspWorkload(tiny_universe, tiny_hosting, seed=5, duration=3600.0,
                        resolution_rate=2.0, warmup=1800.0, background_byte_fraction=0.2)
        bg = 0
        total = 0
        for flow in w.flow_records():
            total += flow.bytes_
            if str(flow.src_ip).startswith("172.16."):
                bg += flow.bytes_
        assert 0.08 < bg / total < 0.40  # noisy at this scale, but present
