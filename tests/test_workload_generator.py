"""Statistical and determinism validation of the workload generator.

Four layers of pinning:

* **Statistical** — the generator's emitted *distributions* match what
  the knobs claim: domain draws are Zipf(alpha) (KS against the exact
  harmonic CDF, plus a cross-exponent discrimination check so the test
  could actually fail), flow sizes follow the named CDF tables, and
  inter-arrival gaps are exponential at the configured rate. All tests
  are seeded, so there is no flake budget: thresholds are hard.
* **Determinism** — one ``(seed, params)`` pair produces byte-identical
  ``.fdc`` output across runs, across generator instances, and — via
  subprocesses — across ``PYTHONHASHSEED`` values. The same subprocess
  harness pins golden-corpus regeneration
  (``python -m repro.replay.scenarios``) byte-stable, the promise
  :mod:`repro.util.rng`'s docstring makes.
* **Bounded memory** — a million-client capture streams to disk under a
  traced peak of a few MiB, because the footprint is the domain universe
  plus the reorder buffer, never the client population; the capture then
  replays with a row per flow and clean accounting.
* **Equivalence** — :class:`PackedV9Exporter` (the generator's fast
  encode path) is byte-identical to ``FlowExporter(version=9)`` over
  mixed-family batches, odd lengths, and template-refresh cadences.
"""

import hashlib
import io
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.core.invariants import assert_invariants
from repro.netflow.exporter import FlowExporter, PackedV9Exporter
from repro.netflow.records import FlowRecord
from repro.netflow.v9 import V9Session
from repro.replay.capture import LANE_FLOW, MAGIC
from repro.replay.runner import replay_capture
from repro.util.errors import ConfigError
from repro.util.rng import make_rng
from repro.workloads.generator import (
    GeneratorParams,
    SIZE_CDFS,
    SizeCdf,
    TTL_PROFILES,
    WorkloadGenerator,
    generate_capture,
    ttl_model_for,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO_ROOT / "tests" / "data" / "golden"


def _ks_threshold(n: int, c: float = 1.63) -> float:
    """One-sample KS critical value; c=1.63 is the alpha=0.01 constant.

    The draws are seeded, so this is a hard bound, not a flake budget."""
    return c / math.sqrt(n)


def _pure_zipf_params(**overrides) -> GeneratorParams:
    """A config whose popularity column is an *exact* Zipf(alpha).

    Zeroing the long-lived / rare-origin / abuse knobs removes every
    popularity perturbation ``build_universe`` applies (and
    ``abuse_byte_share=0`` builds the benign-only universe)."""
    base = dict(
        long_lived_fraction=0.0,
        rare_origin_fraction=0.0,
        abuse_byte_share=0.0,
    )
    base.update(overrides)
    return GeneratorParams(**base)


class TestZipfPopularity:
    N_DRAWS = 20000

    def _rank_draws(self, alpha: float, seed: int = 3):
        params = _pure_zipf_params(
            seed=seed,
            zipf_alpha=alpha,
            n_domains=200,
            clients=2000,
            duration=650.0,
        )
        gen = WorkloadGenerator(params)
        rank_of = {s.name: i for i, s in enumerate(gen.universe.services)}
        draws = []
        for _, service in gen.events():
            draws.append(rank_of[service.name])
            if len(draws) == self.N_DRAWS:
                break
        assert len(draws) == self.N_DRAWS, "duration too short for the draw budget"
        return draws

    @staticmethod
    def _zipf_cdf(n: int, alpha: float):
        weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
        total = sum(weights)
        cdf, acc = [], 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        return cdf

    @staticmethod
    def _ks_stat(draws, cdf):
        n_domains = len(cdf)
        counts = [0] * n_domains
        for rank in draws:
            counts[rank] += 1
        n = len(draws)
        worst, acc = 0.0, 0
        for rank in range(n_domains):
            acc += counts[rank]
            gap = abs(acc / n - cdf[rank])
            if gap > worst:
                worst = gap
        return worst

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 1.2])
    def test_ranks_follow_exact_zipf(self, alpha):
        draws = self._rank_draws(alpha)
        cdf = self._zipf_cdf(200, alpha)
        assert self._ks_stat(draws, cdf) < _ks_threshold(len(draws))

    def test_ks_discriminates_between_exponents(self):
        """The statistical test must be able to fail: alpha=0.6 draws
        against the alpha=1.2 reference CDF (and vice versa) blow far
        past the critical value."""
        flat = self._rank_draws(0.6)
        steep = self._rank_draws(1.2)
        cdf_flat = self._zipf_cdf(200, 0.6)
        cdf_steep = self._zipf_cdf(200, 1.2)
        bound = _ks_threshold(self.N_DRAWS)
        assert self._ks_stat(flat, cdf_steep) > 5 * bound
        assert self._ks_stat(steep, cdf_flat) > 5 * bound

    def test_events_are_time_ordered_and_bounded(self):
        params = _pure_zipf_params(seed=5, clients=500, duration=40.0, start_ts=100.0)
        last = params.start_ts
        for ts, _ in WorkloadGenerator(params).events():
            assert params.start_ts <= ts < params.start_ts + params.duration
            assert ts >= last
            last = ts


class TestPoissonArrivals:
    def test_interarrival_gaps_are_exponential(self):
        """Flat-rate arrivals: the probability-integral transform of the
        gaps is uniform (KS at alpha=0.01, seeded)."""
        params = _pure_zipf_params(seed=7, clients=2000, duration=600.0)
        rate = params.resolution_rate
        times = [ts for ts, _ in WorkloadGenerator(params).events()]
        gaps = [b - a for a, b in zip(times, times[1:])]
        n = len(gaps)
        assert n > 5000
        transformed = sorted(1.0 - math.exp(-rate * g) for g in gaps)
        worst = 0.0
        for i, u in enumerate(transformed):
            worst = max(worst, abs(u - i / n), abs(u - (i + 1) / n))
        assert worst < _ks_threshold(n)

    def test_event_count_matches_rate(self):
        params = _pure_zipf_params(seed=11, clients=1000, duration=300.0)
        count = sum(1 for _ in WorkloadGenerator(params).events())
        expected = params.resolution_rate * params.duration
        assert abs(count - expected) < 5 * math.sqrt(expected)

    def test_diurnal_modulation_thins_the_trough(self):
        """With a diurnal pattern the rate is time-varying: the busiest
        hour of a day-long trace must carry more events than the
        quietest by roughly the configured amplitude."""
        params = _pure_zipf_params(
            seed=13, clients=200, duration=86400.0, diurnal_amplitude=0.8
        )
        per_hour = [0] * 24
        for ts, _ in WorkloadGenerator(params).events():
            per_hour[int(ts // 3600) % 24] += 1
        assert max(per_hour) > 3 * min(per_hour)


class TestFlowSizes:
    @pytest.mark.parametrize("name", ["websearch", "datamining"])
    def test_sizes_follow_named_cdf(self, name):
        params = _pure_zipf_params(
            seed=17, clients=1000, duration=120.0, flow_size_cdf=name
        )
        cdf = SizeCdf.named(name)
        session = V9Session()
        sizes = []
        for frame in WorkloadGenerator(params).frames():
            if frame.lane == LANE_FLOW:
                sizes.extend(session.decode_batch_columns(frame.payload).bytes_)
        n = len(sizes)
        assert n > 5000
        allowed = set(cdf.sizes)
        assert set(sizes) <= allowed
        for point in cdf.sizes:
            observed = sum(1 for s in sizes if s <= point) / n
            expected = cdf.cdf_at(point)
            sigma = math.sqrt(max(expected * (1 - expected), 1e-6) / n)
            assert abs(observed - expected) < 5 * sigma + 0.005, (
                f"P(size<={point}): observed {observed:.4f}, table {expected:.4f}"
            )

    def test_packets_track_sizes(self):
        """The packet count is derived from bytes at ~MSS granularity, so
        decoded flows must respect bytes/packets <= 1448."""
        params = _pure_zipf_params(seed=19, clients=300, duration=30.0)
        session = V9Session()
        seen = 0
        for frame in WorkloadGenerator(params).frames():
            if frame.lane != LANE_FLOW:
                continue
            for rec in session.decode_batch_columns(frame.payload).to_records():
                seen += 1
                assert rec.packets == 1 + rec.bytes_ // 1448
        assert seen > 100

    def test_size_cdf_mean_matches_table(self):
        cdf = SizeCdf.named("uniform")
        assert cdf.mean() == pytest.approx((1024 + 2048 + 4096 + 8192) / 4)
        assert cdf.cdf_at(2048) == pytest.approx(0.5)
        assert cdf.cdf_at(1) == 0.0
        assert cdf.cdf_at(1 << 20) == 1.0


#: Configs the byte-determinism tests sweep — one per materially
#: different code path (v6 answers, short TTL churn, diurnal thinning,
#: invisible resolutions, deep + flat chains).
DETERMINISM_CONFIGS = {
    "default-small": GeneratorParams(seed=23, clients=400, duration=20.0),
    "v6-short-ttl": GeneratorParams(
        seed=29, clients=400, duration=20.0, aaaa_fraction=1.0,
        ttl_profile="short", flow_size_cdf="datamining",
    ),
    "diurnal-invisible": GeneratorParams(
        seed=31, clients=400, duration=20.0, diurnal_amplitude=0.5,
        public_resolver_fraction=0.3, chain_depth=1,
    ),
    # DNS-bound: ~3.4K encoded answers with 8-deep chains, ephemeral
    # names, AAAA answers and short TTLs, and a universe whose over-long
    # abuse labels make 7 ``b"\xff\xff" + name`` malformed frames.
    "dns-bound": GeneratorParams(
        seed=18, clients=1000, duration=600.0, base_rate=8.0,
        n_domains=2000, zipf_alpha=0.5, chain_depth=8,
        ephemeral_fraction=0.5, aaaa_fraction=0.3, ttl_profile="short",
        abuse_byte_share=0.05,
    ),
}

#: sha256 of each ``DETERMINISM_CONFIGS`` capture. ``TestDeterminism``
#: compares two runs of one commit; these pin the bytes across commits,
#: so an encoder rewrite that changes a single answer fails here.
PINNED_DIGESTS = {
    "default-small": "cb466f430073d575a53066c7cce7a352cf0ebf3a81a9f2da3e882558b41119b2",
    "v6-short-ttl": "7cdb5287baa2d9a4b05352d5fe4e25da31d1d757b0df88e3978023292a007bac",
    "diurnal-invisible": "fd6253d53d92ef1ddd15ec35f257c22fac1ccc5c79fc96f8d9ec5f05894177c3",
    "dns-bound": "2ba8502a7c1e135173399f15c18a298eb1f74a13c6efcba0df5c8ef28c7df53b",
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(DETERMINISM_CONFIGS))
    def test_same_seed_same_bytes(self, name):
        """Two fresh generator instances over one config produce
        byte-identical captures — the whole pipeline is seeded."""
        params = DETERMINISM_CONFIGS[name]
        first, second = io.BytesIO(), io.BytesIO()
        report_a = WorkloadGenerator(params).write(first)
        report_b = WorkloadGenerator(params).write(second)
        assert first.getvalue() == second.getvalue()
        assert first.getvalue().startswith(MAGIC)
        assert report_a.flows == report_b.flows > 0
        assert report_a.dns_frames == report_b.dns_frames > 0
        assert report_a.wire_bytes == report_b.wire_bytes == len(first.getvalue())

    @pytest.mark.parametrize("name", sorted(DETERMINISM_CONFIGS))
    def test_bytes_match_pinned_digest(self, name):
        out = io.BytesIO()
        report = generate_capture(DETERMINISM_CONFIGS[name], out)
        assert hashlib.sha256(out.getvalue()).hexdigest() == PINNED_DIGESTS[name]
        if name == "dns-bound":
            assert report.malformed_dns_frames > 0

    def test_seed_changes_bytes(self):
        base = DETERMINISM_CONFIGS["default-small"]
        a, b = io.BytesIO(), io.BytesIO()
        generate_capture(base, a)
        generate_capture(base.replace(seed=base.seed + 1), b)
        assert a.getvalue() != b.getvalue()

    def test_any_param_change_changes_bytes(self):
        base = DETERMINISM_CONFIGS["default-small"]
        reference = io.BytesIO()
        generate_capture(base, reference)
        for change in (
            {"zipf_alpha": 1.1},
            {"chain_depth": 2},
            {"ttl_profile": "long"},
            {"flow_size_cdf": "uniform"},
            {"clients": 401},
        ):
            out = io.BytesIO()
            generate_capture(base.replace(**change), out)
            assert out.getvalue() != reference.getvalue(), change

    def test_flow_lane_timestamps_are_monotonic(self):
        """The reorder buffer's whole point: flow frames leave the
        generator in non-decreasing timestamp order even though lags
        scatter flows far past their resolution events."""
        params = GeneratorParams(seed=37, clients=600, duration=30.0)
        last_flow = last_dns = -math.inf
        flow_frames = dns_frames = 0
        for frame in WorkloadGenerator(params).frames():
            if frame.lane == LANE_FLOW:
                assert frame.ts >= last_flow
                last_flow = frame.ts
                flow_frames += 1
            else:
                assert frame.ts >= last_dns
                last_dns = frame.ts
                dns_frames += 1
        assert flow_frames > 0 and dns_frames > 0

    def test_overflow_keeps_buffer_bounded_and_ordered(self):
        """A tiny ``max_pending`` forces the hard-bound path: overflow
        flushes fire, the peak stays near the bound instead of tracking
        the lag horizon, and emission order survives."""
        params = GeneratorParams(
            seed=41, clients=2000, duration=60.0, per_client_rate=0.05,
            lag_mean=8.0, lag_max=30.0, batch_size=8, max_pending=256,
        )
        gen = WorkloadGenerator(params)
        last_flow = -math.inf
        for frame in gen.frames():
            if frame.lane == LANE_FLOW:
                assert frame.ts >= last_flow
                last_flow = frame.ts
        report = gen.last_report
        assert report.overflow_flushes > 0
        # One burst (<= 12 flows) can land on top of a full buffer
        # before the flush triggers.
        assert report.peak_pending <= params.max_pending + 12
        unbounded = WorkloadGenerator(params.replace(max_pending=1 << 16))
        for _ in unbounded.frames():
            pass
        assert unbounded.last_report.peak_pending > params.max_pending
        assert unbounded.last_report.flows == report.flows


#: One million clients at a residential trickle: the capture stays small
#: (~22K flows) while the *population* is internet-scale.
MILLION = GeneratorParams(seed=1007, clients=1_000_000,
                          per_client_rate=0.0002, duration=40.0)
#: Bound on the tracemalloc peak while streaming MILLION to disk. The
#: measured peak is 1.1–1.3 MB, so this leaves ~3x headroom; per-client
#: state for a million clients could not fit in it.
MILLION_PEAK_BYTES = 4 * 1024 * 1024


class TestBoundedMemory:
    def test_million_client_capture_bounded_and_replayable(self, tmp_path):
        path = str(tmp_path / "million.fdc")
        tracemalloc.start()
        try:
            gen_report = WorkloadGenerator(MILLION).write(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gen_report.flows > 10_000
        assert peak < MILLION_PEAK_BYTES, f"traced peak {peak:,} bytes"

        sink = io.StringIO()
        report = replay_capture(path, sink=sink)
        rows = [line for line in sink.getvalue().splitlines()
                if line and not line.startswith("#")]
        assert_invariants(report, rows=len(rows))
        assert report.matched_flows > 0


def _packed(flow: FlowRecord):
    return (
        flow.ts, flow.src_ip.packed, flow.dst_ip.packed, flow.src_port,
        flow.dst_port, flow.protocol, flow.packets, flow.bytes_,
    )


def _random_flows(n: int, seed: int = 0):
    rng = make_rng(seed)
    flows = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.55:
            src = f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            dst = f"100.64.{rng.randrange(64)}.{rng.randrange(1, 255)}"
        elif roll < 0.9:
            src = f"2001:db8::{rng.randrange(1, 1 << 16):x}"
            dst = f"2001:db8:feed::{rng.randrange(1, 1 << 16):x}"
        else:
            # Mixed-family pair: both exporters must drop it.
            src = f"10.0.0.{rng.randrange(1, 255)}"
            dst = f"2001:db8::{rng.randrange(1, 1 << 16):x}"
        flows.append(
            FlowRecord(
                ts=100.0 + i * 0.37 + rng.random(),
                src_ip=src,
                dst_ip=dst,
                src_port=rng.randrange(1, 1 << 16),
                dst_port=rng.randrange(1, 1 << 16),
                protocol=rng.choice((6, 17)),
                packets=rng.randrange(1, 1 << 20),
                bytes_=rng.randrange(0, 1 << 31),
            )
        )
    return flows


class TestPackedExporterEquivalence:
    @pytest.mark.parametrize("batch_size,template_refresh", [
        (1, 1), (7, 3), (24, 64), (30, 2),
    ])
    @pytest.mark.parametrize("count", [1, 53, 240])
    def test_byte_identical_to_flow_exporter(self, batch_size, template_refresh, count):
        """The generator's fast path and the reference exporter emit the
        same datagram stream: template cadence, sequence accounting,
        v4/v6 split, mixed-family drops, field packing — everything."""
        flows = _random_flows(count, seed=batch_size * 1000 + count)
        reference = list(
            FlowExporter(
                version=9, batch_size=batch_size, template_refresh=template_refresh
            ).export(flows)
        )
        packed = list(
            PackedV9Exporter(
                batch_size=batch_size, template_refresh=template_refresh
            ).export(_packed(f) for f in flows)
        )
        assert packed == reference

    def test_decode_round_trip(self):
        """Packed datagrams decode back to the fields that went in (for
        the same-family flows; mixed pairs are dropped by contract)."""
        flows = [f for f in _random_flows(90, seed=5)
                 if f.src_ip.version == f.dst_ip.version]
        session = V9Session()
        decoded = []
        for datagram in PackedV9Exporter(batch_size=16).export(
            _packed(f) for f in flows
        ):
            decoded.extend(session.decode_batch_columns(datagram).to_records())
        assert len(decoded) == len(flows)

        # Each batch emits its v4 FlowSet before its v6 one, so decode
        # order is not input order; compare the field multisets.
        def fields(flow):
            return (
                str(flow.src_ip), str(flow.dst_ip), flow.src_port,
                flow.dst_port, flow.protocol, flow.packets, flow.bytes_,
            )

        assert sorted(map(fields, decoded)) == sorted(map(fields, flows))


def _run_python(code_or_args, hash_seed, cwd=None):
    """Run a python subprocess under a pinned PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable] + code_or_args,
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


_GENERATOR_DIGEST_CODE = """
import hashlib, io
from repro.workloads.generator import GeneratorParams, generate_capture
out = io.BytesIO()
generate_capture(
    GeneratorParams(seed=47, clients=300, duration=15.0, aaaa_fraction=0.2,
                    public_resolver_fraction=0.1),
    out,
)
print(hashlib.sha256(out.getvalue()).hexdigest())
"""

#: What ``_GENERATOR_DIGEST_CODE`` prints, under every hash seed and commit.
GENERATOR_DIGEST = "43ea0bf3357bbf02d8f7d3ae67bca6bd9a8e10adcddf6136384151e39b937b56"


class TestCrossHashSeedStability:
    """The rng.py docstring's promise: nothing on the seeded paths routes
    through ``hash()``, so output is byte-stable across interpreter hash
    randomisation — the property that keeps golden corpora regenerable."""

    def test_generator_output_survives_hash_randomisation(self):
        digests = {
            _run_python(["-c", _GENERATOR_DIGEST_CODE], hash_seed).strip()
            for hash_seed in (0, 1, "random")
        }
        assert digests == {GENERATOR_DIGEST}

    def test_scenario_regeneration_matches_checked_in_corpus(self, tmp_path):
        """``python -m repro.replay.scenarios`` under two different hash
        seeds reproduces the checked-in golden corpus byte for byte."""
        for hash_seed in (0, 1):
            out_dir = tmp_path / f"hs{hash_seed}"
            _run_python(
                ["-m", "repro.replay.scenarios", str(out_dir)], hash_seed
            )
            regenerated = sorted(out_dir.glob("*.fdc"))
            assert regenerated, "regeneration produced no captures"
            for path in regenerated:
                golden = GOLDEN_DIR / path.name
                assert golden.exists(), f"unexpected scenario {path.name}"
                assert path.read_bytes() == golden.read_bytes(), (
                    f"{path.name} drifted under PYTHONHASHSEED={hash_seed}"
                )


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"clients": 0},
        {"clients": (1 << 22) + 1},
        {"duration": 0.0},
        {"base_rate": -1.0},
        {"per_client_rate": 0.0},
        {"zipf_alpha": -0.1},
        {"chain_depth": 0},
        {"n_domains": 2},
        {"cdn_count": 0},
        {"aaaa_fraction": 1.5},
        {"public_resolver_fraction": 1.0},
        {"diurnal_amplitude": 1.0},
        {"lag_mean": 0.0},
        {"batch_size": 0},
        {"bucket_width": 0.0},
        {"max_pending": 10, "batch_size": 30},
        {"flow_size_cdf": "nope"},
        {"ttl_profile": "nope"},
        {"flow_burst_weights": ((1, 0.5), (2, 0.4))},
    ])
    def test_bad_params_rejected(self, overrides):
        with pytest.raises(ConfigError):
            GeneratorParams(**overrides)

    def test_size_cdf_validation(self):
        with pytest.raises(ConfigError):
            SizeCdf(())
        with pytest.raises(ConfigError):
            SizeCdf(((100, 0.5), (50, 0.5)))  # not increasing
        with pytest.raises(ConfigError):
            SizeCdf(((100, 0.5), (200, 0.4)))  # sums to 0.9
        with pytest.raises(ConfigError):
            SizeCdf(((1 << 32, 1.0),))  # overflows IN_BYTES
        with pytest.raises(ConfigError):
            SizeCdf.named("nope")

    def test_ttl_profiles_build(self):
        for name in TTL_PROFILES:
            assert ttl_model_for(name) is not None
        with pytest.raises(ConfigError):
            ttl_model_for("nope")

    def test_from_args_rejects_rate_conflict(self):
        args = SimpleNamespace(rate=100.0, per_client_rate=0.5)
        with pytest.raises(ConfigError, match="--rate"):
            GeneratorParams.from_args(args)

    def test_from_args_applies_overrides(self):
        args = SimpleNamespace(
            seed=9, clients=123, duration=5.0, rate=None, per_client_rate=None,
            n_domains=50, zipf_alpha=1.1, chain_depth=2, flow_size_cdf="uniform",
            ttl_profile="short", cdn_count=None, aaaa_fraction=None,
            public_resolver_fraction=None, diurnal_amplitude=None,
        )
        params = GeneratorParams.from_args(args)
        assert params.seed == 9
        assert params.clients == 123
        assert params.flow_size_cdf == "uniform"
        assert params.cdn_count == GeneratorParams().cdn_count  # default kept

    def test_expected_flows_estimate(self):
        params = GeneratorParams(seed=43, clients=1000, duration=100.0)
        out = io.BytesIO()
        report = generate_capture(params, out)
        expected = params.expected_flows()
        assert abs(report.flows - expected) < 0.1 * expected


class TestGenerateCli:
    def test_generate_writes_capture(self, tmp_path, capsys):
        path = tmp_path / "gen.fdc"
        code = cli_main([
            "generate", str(path), "--seed", "3", "--clients", "200",
            "--duration", "5",
        ])
        assert code == 0
        assert path.read_bytes().startswith(MAGIC)
        err = capsys.readouterr().err
        assert "flows/s" in err
        # The DNS side of the cost: encoded answers and their rate.
        expected = generate_capture(
            GeneratorParams(seed=3, clients=200, duration=5.0), io.BytesIO()
        )
        assert expected.cache_misses > 0
        assert f"{expected.cache_misses:,} encoded answers" in err
        assert "answers/s" in err

    def test_listings_need_no_output_path(self, capsys):
        assert cli_main(["generate", "--list-size-cdfs"]) == 0
        out = capsys.readouterr().out
        for name in SIZE_CDFS:
            assert name in out
        assert cli_main(["generate", "--list-ttl-profiles"]) == 0
        out = capsys.readouterr().out
        for name in TTL_PROFILES:
            assert name in out

    def test_missing_output_exits_2(self, capsys):
        assert cli_main(["generate"]) == 2
        assert "output path" in capsys.readouterr().err

    def test_config_error_exits_2_without_touching_target(self, tmp_path, capsys):
        path = tmp_path / "never.fdc"
        code = cli_main([
            "generate", str(path), "--rate", "50", "--per-client-rate", "0.1",
        ])
        assert code == 2
        assert not path.exists()
        assert "--rate" in capsys.readouterr().err
