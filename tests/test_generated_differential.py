"""Batch-layout differential harness over *generated* workloads.

The golden corpus (:mod:`tests.test_replay_differential`) pins the
engine's layout independence on hand-built scenarios of a few hundred
flows; this suite runs the same contract at generated scale: three
checked-in ``(seed, config)`` points — ~10K flows each, regenerated
into tmp on every run, never stored — must replay to identical sorted
rows and stats under the default batch layout and at batch sizes 1 and
7, fault-free runs must satisfy every accounting invariant including
the row-count check, and a deterministic fault leg must keep the books
balanced while actually losing traffic.

One genuine behaviour this suite discovered and now pins: CNAME-chain
*memoisation* (Algorithm 2 step 7) makes the reported chain text depend
on batch layout — once a multi-hop chain is memoised, later look-ups
report the shortcut, and *when* that happens differs per layout.
Endpoints, match outcomes, and every byte counter stay identical; only
the chain interior varies. So the exact-rows contract is asserted with
``memoize_cname_chains=False``, and a dedicated test pins the memoised
mode's guarantee: identical stats and identical rows modulo the chain
interior. The golden corpus never caught it: no golden scenario walks
a ≥2-CNAME chain twice.

The sweep driver rides the same captures: its row list, the
``sweep-rows.json`` it writes into its output directory, and its CLI
surface are covered here rather than in a separate suite so one
generated grid pays for all of it.
"""

import dataclasses
import io
import json

import pytest

from repro.cli import main as cli_main
from repro.core.config import EngineConfig
from repro.core.invariants import assert_invariants
from repro.replay.runner import replay_capture
from repro.util.errors import ConfigError
from repro.workloads.generator import GeneratorParams, WorkloadGenerator
from repro.workloads.sweep import (
    SWEEP_ROWS_FILE,
    SweepSpec,
    run_sweep,
    sweep_points,
)

#: Report fields every batch layout must agree on, bit for bit (the
#: same set the golden-corpus differential compares).
COMPARABLE_FIELDS = (
    "matched_flows",
    "flow_records",
    "dns_records",
    "total_bytes",
    "correlated_bytes",
    "chain_lengths",
    "overwrites",
    "final_map_entries",
    "evictions",
)

#: The second legs: one item per lane wake-up, and an odd size.
LAYOUT_BATCH_SIZES = (1, 7)

#: The checked-in differential grid: seeds and configs live here in the
#: repo, captures are regenerated per run (byte-identical every time —
#: ``tests/test_workload_generator.py`` pins that). Each point stresses
#: a different shape: default websearch, v6-heavy short-TTL churn, and
#: deep chains with heavy-tailed datamining sizes + partial visibility.
DIFFERENTIAL_CONFIGS = {
    "websearch-default": GeneratorParams(
        seed=101, clients=3000, duration=60.0,
    ),
    "v6-short-ttl": GeneratorParams(
        seed=103, clients=3000, duration=60.0, aaaa_fraction=0.6,
        ttl_profile="short", zipf_alpha=1.1,
    ),
    # public_resolver_fraction must be high to matter: visibility is
    # per-*resolution* against the generator's shared name cache, so one
    # visible resolution covers every client — at 0.2 the match rate
    # stays above 0.99; 0.8 is where real coverage loss shows up.
    "datamining-deep-chains": GeneratorParams(
        seed=107, clients=3000, duration=60.0, flow_size_cdf="datamining",
        chain_depth=6, public_resolver_fraction=0.8, ttl_profile="long",
    ),
}


@pytest.fixture(scope="module")
def generated_captures(tmp_path_factory):
    """Generate each differential point once per test session."""
    root = tmp_path_factory.mktemp("generated")
    captures = {}
    for name, params in DIFFERENTIAL_CONFIGS.items():
        path = str(root / f"{name}.fdc")
        report = WorkloadGenerator(params).write(path)
        assert report.flows > 8000, f"{name} is too small to stress the engines"
        captures[name] = (path, report)
    return captures


def _leg_config(memoize=True, batch_size=None, **overrides):
    """A replay leg, optionally with CNAME-chain memoisation off (see
    module docstring) and a non-default lane batch size."""
    config = EngineConfig(**overrides)
    changes = {}
    if not memoize:
        changes["memoize_cname_chains"] = False
    if batch_size is not None:
        changes["engine_batch_size"] = batch_size
    return dataclasses.replace(config, flowdns=config.flowdns.replace(**changes))


def _replay(capture, config=None):
    sink = io.StringIO()
    report = replay_capture(
        capture,
        config=config if config is not None else _leg_config(),
        sink=sink,
    )
    rows = sorted(
        line for line in sink.getvalue().splitlines()
        if line and not line.startswith("#")
    )
    return report, rows


def _strip_chain_interior(row):
    """Row with its chain column reduced to ``first>last``: the part of
    a correlation memoisation is allowed to rewrite is the interior."""
    columns = row.split("\t")
    hops = columns[-1].split(">")
    columns[-1] = hops[0] if len(hops) == 1 else f"{hops[0]}>{hops[-1]}"
    return "\t".join(columns)


class TestGeneratedDifferential:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
    def test_engines_agree_and_invariants_hold(self, generated_captures, name):
        """The headline assertion at generated scale: identical sorted
        rows and stats under every batch layout, and every report
        passes the accounting invariants including row-count.

        Memoisation is off here — it rewrites chain interiors on a
        batch-layout-dependent schedule (pinned separately below), and
        this test's contract is bit-identical output."""
        path, gen_report = generated_captures[name]
        baseline, baseline_rows = _replay(path, _leg_config(memoize=False))
        assert_invariants(baseline, rows=len(baseline_rows))
        assert baseline.flow_records > 0
        assert baseline.matched_flows > 0
        for batch_size in LAYOUT_BATCH_SIZES:
            report, rows = _replay(
                path, _leg_config(memoize=False, batch_size=batch_size)
            )
            assert rows == baseline_rows, (
                f"batch size {batch_size} rows diverged from the default layout"
            )
            for field in COMPARABLE_FIELDS:
                assert getattr(report, field) == getattr(baseline, field), (
                    f"batch size {batch_size} {field}: "
                    f"{getattr(report, field)!r} "
                    f"!= default {getattr(baseline, field)!r}"
                )
            assert_invariants(report, rows=len(rows))

    def test_memoisation_rewrites_only_chain_interiors(self, generated_captures):
        """With memoisation on (the default), batch layouts may disagree
        on *when* a multi-hop chain starts reporting its shortcut — but
        endpoints, match outcomes, and every byte counter must still be
        identical, and the divergence must actually exist (otherwise
        the exact-rows test above is testing nothing)."""
        path, _ = generated_captures["datamining-deep-chains"]
        baseline, baseline_rows = _replay(path)
        assert_invariants(baseline, rows=len(baseline_rows))
        report, rows = _replay(path, _leg_config(batch_size=1))
        assert [_strip_chain_interior(r) for r in rows] == [
            _strip_chain_interior(r) for r in baseline_rows
        ], "batch size 1 diverged beyond the chain interior"
        for field in COMPARABLE_FIELDS:
            if field == "chain_lengths":
                continue  # memoised walks legitimately shorten
            assert getattr(report, field) == getattr(baseline, field), field
        assert_invariants(report, rows=len(rows))
        assert rows != baseline_rows, (
            "batch size 1 did not diverge under memoisation: deepen the "
            "config or drop the memoize=False special-casing"
        )

    def test_visibility_shapes_match_rate(self, generated_captures):
        """The partial-visibility config must correlate strictly less of
        its traffic than the fully-visible ones — the differential grid
        has to discriminate, not just agree."""
        rates = {}
        for name, (path, _) in generated_captures.items():
            report, _ = _replay(path)
            rates[name] = report.matched_flows / report.flow_records
        assert rates["websearch-default"] > 0.95
        assert rates["v6-short-ttl"] > 0.95
        assert rates["datamining-deep-chains"] < 0.92
        fully_visible = min(rates["websearch-default"], rates["v6-short-ttl"])
        assert rates["datamining-deep-chains"] < fully_visible - 0.05

    def test_fault_leg_loses_traffic_but_keeps_the_books(self, generated_captures):
        """lossy-udp at a fixed fault seed: flows are genuinely dropped
        (vs the fault-free baseline) yet the loss counters account for
        every one of them — and the same seeded leg is deterministic
        run over run."""
        path, _ = generated_captures["websearch-default"]
        clean, _ = _replay(path)
        config = _leg_config(fault_profile="lossy-udp", fault_seed=99)
        faulted, rows = _replay(path, config)
        assert_invariants(faulted)
        # Fault drops happen at the wire, upstream of the stream buffers
        # that overall_loss_rate measures — the observable is the record
        # count vs the clean leg. At ~10K flows, drop 0.08 / dup 0.04
        # on frames nets out to a real deficit.
        assert faulted.flow_records < clean.flow_records
        again, rows_again = _replay(path, config)
        assert rows_again == rows
        assert again.flow_records == faulted.flow_records


class TestSweepSpec:
    def test_points_are_the_cartesian_grid_in_stable_order(self):
        spec = SweepSpec(
            clients=(100, 200), zipf_alphas=(0.7, 1.1), chain_depths=(2,),
        )
        points = sweep_points(spec)
        assert [(p.clients, p.zipf_alpha, p.chain_depth) for p in points] == [
            (100, 0.7, 2), (100, 1.1, 2), (200, 0.7, 2), (200, 1.1, 2),
        ]

    @pytest.mark.parametrize("kwargs,match", [
        ({"fault_profiles": ()}, "empty"),
        ({"clients": ()}, "empty"),
        ({"zipf_alphas": ()}, "empty"),
        ({"chain_depths": ()}, "empty"),
        ({"fault_seed": 3}, "fault profile"),
        ({"clients": (0,)}, "clients"),
    ])
    def test_bad_specs_rejected_eagerly(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            SweepSpec(**kwargs)

    def test_leg_config_scopes_the_seed_to_fault_legs(self):
        spec = SweepSpec(fault_profiles=(None, "lossy-udp"), fault_seed=7)
        faulted = spec.leg_config("lossy-udp")
        assert faulted.fault_profile == "lossy-udp"
        assert faulted.fault_seed == 7
        baseline = spec.leg_config(None)
        assert baseline.fault_profile is None
        assert baseline.fault_seed is None


class TestRunSweep:
    #: Small but real: 2 workload points x 2 fault legs.
    SPEC = SweepSpec(
        clients=(300, 600),
        fault_profiles=(None, "lossy-udp"),
        fault_seed=5,
        base=GeneratorParams(seed=109, duration=20.0),
    )

    def test_rows_cover_the_grid_and_land_in_out_dir(self, tmp_path):
        messages = []
        rows = run_sweep(
            self.SPEC, str(tmp_path / "sweeps"), log=messages.append,
        )
        assert len(rows) == 2 * 2
        assert {(r["clients"], r["fault_profile"]) for r in rows} == {
            (c, p) for c in (300, 600) for p in ("none", "lossy-udp")
        }
        baseline = {r["clients"]: r for r in rows if r["fault_profile"] == "none"}
        for row in rows:
            assert row["generated_flows"] > 0
            assert 0.0 <= row["match_rate"] <= 1.0
            assert 0.0 <= row["loss_rate"] <= 1.0
            if row["fault_profile"] == "none":
                assert row["output_rows"] == row["delivered_flows"]
                assert row["loss_rate"] == 0.0
                assert row["match_rate"] > 0.9
            else:
                # Frame drop and duplication both change the delivered
                # count; on a small capture the *net* can even be a
                # surplus (loss_rate clamps to 0), so the contract is
                # "the faults visibly touched traffic", not "net loss".
                twin = baseline[row["clients"]]
                assert row["delivered_flows"] != twin["delivered_flows"]
        # Captures are deleted once their legs finish...
        assert list((tmp_path / "sweeps").glob("*.fdc")) == []
        # ...the rows landed next to them...
        recorded = json.loads((tmp_path / "sweeps" / SWEEP_ROWS_FILE).read_text())
        assert recorded == rows
        # ...and the log narrated every point.
        assert any("2 workload points" in m for m in messages)

    def test_keep_captures_retains_the_grid(self, tmp_path):
        spec = SweepSpec(
            clients=(200,), base=GeneratorParams(seed=113, duration=10.0),
        )
        run_sweep(spec, str(tmp_path), keep_captures=True)
        kept = list(tmp_path.glob("*.fdc"))
        assert len(kept) == 1
        assert kept[0].name == "sweep-c200-a0.9-d4.fdc"


class TestSweepCli:
    ARGS = ["--clients", "250", "--seed", "11", "--duration", "10"]

    def test_sweep_smoke(self, tmp_path, capsys):
        code = cli_main(["sweep", str(tmp_path / "out"), *self.ARGS])
        assert code == 0
        captured = capsys.readouterr()
        assert "match" in captured.out  # the summary table printed
        rows = json.loads((tmp_path / "out" / SWEEP_ROWS_FILE).read_text())
        assert len(rows) == 1
        assert rows[0]["fault_profile"] == "none"
        assert rows[0]["clients"] == 250

    def test_sweep_writes_only_into_its_out_dir(self, tmp_path, monkeypatch):
        """Nothing lands in the working directory or anywhere else
        outside the output directory the sweep was given."""
        monkeypatch.chdir(tmp_path)
        assert cli_main(["sweep", "out", *self.ARGS]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == [SWEEP_ROWS_FILE]

    def test_list_fault_profiles(self, capsys):
        assert cli_main(["sweep", "--list-fault-profiles"]) == 0
        assert "lossy-udp" in capsys.readouterr().out

    def test_missing_out_dir_exits_2(self, capsys):
        assert cli_main(["sweep"]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_bad_axis_exits_2(self, tmp_path, capsys):
        code = cli_main(["sweep", str(tmp_path), "--clients", "0"])
        assert code == 2
        assert "clients" in capsys.readouterr().err
