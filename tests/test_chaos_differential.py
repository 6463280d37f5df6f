"""The chaos differential suite: every golden scenario × fault profile
× batch layout, watchdogged.

Three guarantees per cell of the matrix:

* the *same* faulted byte stream yields *identical* sorted output rows
  and report stats from every leg (the default batch layout, batch
  sizes 1 and 7, and the default layout with the snapshot lifecycle
  enabled) — perturbation happens before the engine, so layout
  independence must survive hostile input. Every leg runs with
  ``memoize_cname_chains=False``, the identity condition
  ``tests/test_generated_differential.py`` documents;
* every report is accounting-invariant-clean
  (:mod:`repro.core.invariants`) — loss may happen, silent loss may
  not;
* no run hangs: every engine run sits behind
  :func:`call_with_deadline`, so a deadlock is a named test failure,
  not a CI-level timeout.

Seed reproducibility is asserted at the matrix edge: re-applying the
same ``(plan, seed)`` to the same capture must reproduce the faulted
frame list bit-for-bit.
"""

import io
import pathlib

import pytest

from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.invariants import assert_invariants, call_with_deadline
from repro.replay import (
    FAULT_PROFILES,
    SCENARIOS,
    FaultInjector,
    load_capture,
    replay_capture,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"

#: One deterministic seed for the whole matrix: any failure reproduces
#: with `FaultInjector(FAULT_PROFILES[profile], seed=CHAOS_SEED)`.
#: Chosen so every profile actually perturbs every golden scenario
#: (both lanes share one derived draw sequence per seed, so an unlucky
#: seed would zero a low-rate profile across the whole corpus at once).
CHAOS_SEED = 42

#: Hard per-run deadline. Generous (the runs take well under a second);
#: its job is turning a hang into a named failure.
RUN_DEADLINE = 120.0

#: Report fields every leg must agree on under faults.
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

#: The baseline leg's correlator config: the default batch layout with
#: chain memoisation off.
BASE_CONFIG = FlowDNSConfig(memoize_cname_chains=False)


def _rows(sink: io.StringIO):
    return sorted(
        line for line in sink.getvalue().splitlines()
        if line and not line.startswith("#")
    )


def _run_engine(frames, label, config=BASE_CONFIG):
    sink = io.StringIO()
    report = call_with_deadline(
        lambda: replay_capture(frames, config=config, sink=sink),
        timeout=RUN_DEADLINE,
        label=label,
    )
    rows = _rows(sink)
    assert_invariants(report, rows=len(rows))
    return report, rows


def _faulted_frames(scenario: str, profile: str):
    capture = load_capture(str(GOLDEN_DIR / f"{scenario}.fdc"))
    injector = FaultInjector(FAULT_PROFILES[profile], seed=CHAOS_SEED)
    frames = injector.apply(capture)
    # Seed reproducibility: the perturbed stream is a pure function of
    # (capture, plan, seed) — bit-for-bit.
    again = FaultInjector(FAULT_PROFILES[profile], seed=CHAOS_SEED).apply(capture)
    assert frames == again, "same fault seed must reproduce the identical stream"
    return frames, injector


class TestChaosDifferential:
    @pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_engines_agree_under_faults(self, scenario, profile, tmp_path):
        frames, injector = _faulted_frames(scenario, profile)
        # The injector must have actually perturbed something on every
        # profile (otherwise the matrix silently tests the clean path).
        touched = sum(
            s.dropped + s.duplicated + s.reordered + s.corrupted
            + s.truncated + s.stalled
            for s in injector.stats.values()
        )
        active_skew = any(
            lane.clock_skew != 0.0
            for lane in (FAULT_PROFILES[profile].dns, FAULT_PROFILES[profile].flow)
        )
        assert touched > 0 or active_skew, (
            f"profile {profile!r} perturbed nothing on {scenario!r}"
        )

        label = f"{scenario}×{profile}"
        baseline, baseline_rows = _run_engine(frames, f"default:{label}")
        legs = [
            ("batch1", BASE_CONFIG.replace(engine_batch_size=1)),
            ("batch7", BASE_CONFIG.replace(engine_batch_size=7)),
            (
                "snapshots",
                EngineConfig(
                    flowdns=BASE_CONFIG,
                    snapshot_path=str(tmp_path / "chaos-snap.bin"),
                    snapshot_interval=3600.0,
                ),
            ),
        ]
        for tag, config in legs:
            report, rows = _run_engine(frames, f"{tag}:{label}", config=config)
            assert rows == baseline_rows, (
                f"{tag} rows diverged from the default layout on {label}"
            )
            for fieldname in COMPARABLE_FIELDS:
                assert getattr(report, fieldname) == getattr(baseline, fieldname), (
                    f"{tag} {fieldname} diverged on {label}: "
                    f"{getattr(report, fieldname)!r} != "
                    f"{getattr(baseline, fieldname)!r}"
                )


class TestChaosEdgeCases:
    def test_total_flow_loss_stays_clean(self):
        """Dropping every flow frame leaves zero rows — and a clean,
        non-hanging report under every batch layout."""
        from repro.replay import FaultPlan, LaneFaults

        capture = load_capture(str(GOLDEN_DIR / "two-site.fdc"))
        plan = FaultPlan(flow=LaneFaults(drop_rate=1.0))
        frames = FaultInjector(plan, seed=0).apply(capture)
        for batch_size in (BASE_CONFIG.engine_batch_size, 1):
            report, rows = _run_engine(
                frames, f"batch{batch_size}:total-flow-loss",
                config=BASE_CONFIG.replace(engine_batch_size=batch_size),
            )
            assert rows == []
            assert report.flow_records == 0
            assert report.dns_records > 0

    def test_zero_length_truncation_replays_everywhere(self):
        """truncate_rate=1.0 produces zero-length frames on both lanes;
        the capture codec and every decode path must account for them
        rather than choke."""
        from repro.replay import FaultPlan

        capture = load_capture(str(GOLDEN_DIR / "malformed.fdc"))
        plan = FaultPlan.symmetric(truncate_rate=1.0)
        frames = FaultInjector(plan, seed=0).apply(capture)
        assert any(len(f.payload) == 0 for f in frames)
        baseline, baseline_rows = _run_engine(frames, "default:all-truncated")
        report, rows = _run_engine(
            frames, "batch1:all-truncated",
            config=BASE_CONFIG.replace(engine_batch_size=1),
        )
        assert rows == baseline_rows

    def test_faulted_capture_round_trips_through_disk(self, tmp_path):
        """A faulted frame list survives the capture codec, so chaos
        streams can be persisted and replayed like any capture."""
        from repro.replay import write_capture

        capture = load_capture(str(GOLDEN_DIR / "bursts.fdc"))
        frames = FaultInjector(
            FAULT_PROFILES["everything"], seed=CHAOS_SEED
        ).apply(capture)
        path = str(tmp_path / "faulted.fdc")
        write_capture(path, frames)
        assert load_capture(path) == frames
        direct, direct_rows = _run_engine(frames, "in-memory")
        from_disk, disk_rows = _run_engine(path, "from-disk")
        assert disk_rows == direct_rows
        assert from_disk.flow_records == direct.flow_records
