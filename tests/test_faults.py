"""The fault-injection layer: determinism, per-fault behaviour, profiles.

The contract under test is reproducibility: a faulted stream is a pure
function of ``(input frames, plan, seed)``, per-lane — so the same seed
replays the identical perturbation, and faulting one lane never consumes
draws that would change the other lane's byte stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay import (
    FAULT_PROFILES,
    LANE_DNS,
    LANE_FLOW,
    CaptureFrame,
    FaultInjector,
    FaultPlan,
    LaneFaults,
    parse_fault_specs,
    resolve_fault_plan,
)
from repro.replay.scenarios import build_scenario
from repro.util.errors import ConfigError


def _frames(n=40, lane=LANE_FLOW, size=64):
    # Unique payloads (the 2-byte index repeats through the whole frame)
    # so permutation tests can recover each frame's input position.
    return [
        CaptureFrame(
            ts=float(i),
            lane=lane,
            payload=(i.to_bytes(2, "big") * (size // 2 + 1))[:size],
        )
        for i in range(n)
    ]


class TestPlanValidation:
    @pytest.mark.parametrize("knob", ["drop_rate", "duplicate_rate", "reorder_rate",
                                      "corrupt_rate", "truncate_rate", "stall_rate"])
    def test_rates_must_be_probabilities(self, knob):
        with pytest.raises(ConfigError):
            LaneFaults(**{knob: 1.5})
        with pytest.raises(ConfigError):
            LaneFaults(**{knob: -0.1})

    def test_window_and_stall_bounds(self):
        with pytest.raises(ConfigError):
            LaneFaults(reorder_window=0)
        with pytest.raises(ConfigError):
            LaneFaults(stall_seconds=-1.0)

    def test_active_flags(self):
        assert not LaneFaults().active
        assert LaneFaults(clock_skew=-1.0).active
        assert LaneFaults(drop_rate=0.1).active
        assert not FaultPlan().active
        assert FaultPlan(flow=LaneFaults(drop_rate=0.1)).active

    def test_profiles_are_all_active_and_described(self):
        for name, plan in FAULT_PROFILES.items():
            assert plan.active, name
            assert plan.description, name

    def test_unknown_lane_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault lane"):
            FaultPlan().lane("smoke-signals")


class TestSpecParsing:
    def test_specs_parse_to_field_values(self):
        values = parse_fault_specs(["drop=0.05", "reorder_window=8", "clock_skew=-30"])
        assert values == {
            "drop_rate": 0.05, "reorder_window": 8, "clock_skew": -30.0,
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault"):
            parse_fault_specs(["jitter=0.1"])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="NAME=VALUE"):
            parse_fault_specs(["drop"])

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="needs a number"):
            parse_fault_specs(["drop=lots"])

    def test_resolve_overlays_specs_on_profile(self):
        plan = resolve_fault_plan("lossy-udp", ["drop=0.5"])
        assert plan.flow.drop_rate == 0.5
        assert plan.dns.drop_rate == 0.5  # symmetric overlay
        # untouched profile knobs survive
        assert plan.flow.duplicate_rate == FAULT_PROFILES["lossy-udp"].flow.duplicate_rate

    def test_resolve_none_when_nothing_given(self):
        assert resolve_fault_plan(None, None) is None
        assert resolve_fault_plan(None, []) is None

    def test_resolve_unknown_profile(self):
        with pytest.raises(ConfigError, match="unknown fault profile"):
            resolve_fault_plan("chaos-monkey", None)

    def test_out_of_range_spec_rejected_at_plan_construction(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            resolve_fault_plan(None, ["drop=2.0"])


class TestDeterminism:
    @pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
    def test_same_seed_same_stream(self, profile):
        frames = build_scenario("malformed", seed=7)
        plan = FAULT_PROFILES[profile]
        first = FaultInjector(plan, seed=42).apply(frames)
        second = FaultInjector(plan, seed=42).apply(frames)
        assert first == second

    def test_different_seed_different_stream(self):
        frames = build_scenario("bursts", seed=7)
        plan = FAULT_PROFILES["everything"]
        a = FaultInjector(plan, seed=1).apply(frames)
        b = FaultInjector(plan, seed=2).apply(frames)
        assert a != b

    def test_lane_independence(self):
        """Faulting the DNS lane must not change the flow lane's stream:
        each lane draws from its own derived RNG."""
        frames = build_scenario("two-site", seed=7)
        flow_only = FaultPlan(flow=FAULT_PROFILES["everything"].flow)
        both = FaultPlan(
            dns=FAULT_PROFILES["everything"].dns,
            flow=FAULT_PROFILES["everything"].flow,
        )
        flows_a = [f for f in FaultInjector(flow_only, seed=5).apply(frames)
                   if f.lane == LANE_FLOW]
        flows_b = [f for f in FaultInjector(both, seed=5).apply(frames)
                   if f.lane == LANE_FLOW]
        assert flows_a == flows_b

    def test_reapplying_one_injector_repeats_the_stream(self):
        """One injector applied twice re-derives its lane RNGs, so every
        application is the identical perturbation."""
        frames = _frames(60)
        plan = FaultPlan(flow=LaneFaults(
            drop_rate=0.2, duplicate_rate=0.1, reorder_rate=0.2, corrupt_rate=0.1,
        ))
        injector = FaultInjector(plan, seed=9)
        first = injector.apply(frames)
        assert injector.apply(frames) == first


class TestPerFaultBehaviour:
    def test_drop_only_loses_frames(self):
        frames = _frames(200)
        plan = FaultPlan(flow=LaneFaults(drop_rate=0.3))
        injector = FaultInjector(plan, seed=1)
        out = injector.apply(frames)
        stats = injector.stats[LANE_FLOW]
        assert stats.dropped > 0
        assert len(out) == len(frames) - stats.dropped
        surviving = [f.payload for f in out]
        assert all(p in {f.payload for f in frames} for p in surviving)

    def test_duplicate_emits_adjacent_copies(self):
        frames = _frames(200)
        plan = FaultPlan(flow=LaneFaults(duplicate_rate=0.3))
        injector = FaultInjector(plan, seed=1)
        out = injector.apply(frames)
        stats = injector.stats[LANE_FLOW]
        assert stats.duplicated > 0
        assert len(out) == len(frames) + stats.duplicated

    def test_reorder_stays_within_window(self):
        frames = _frames(300)
        window = 5
        plan = FaultPlan(flow=LaneFaults(reorder_rate=0.4, reorder_window=window))
        injector = FaultInjector(plan, seed=3)
        out = injector.apply(frames)
        assert injector.stats[LANE_FLOW].reordered > 0
        # Nothing lost, nothing invented — just permuted.
        assert sorted(f.payload for f in out) == sorted(f.payload for f in frames)
        # Bounded forward displacement: a held frame is released after at
        # most `window` further emissions, so it can never appear more
        # than `window` output positions late. (It can appear *earlier*
        # than its input index — that is other frames being delayed.)
        positions = {f.payload: i for i, f in enumerate(out)}
        for i, frame in enumerate(frames):
            assert positions[frame.payload] - i <= window, (
                f"frame {i} displaced beyond the reorder window"
            )

    def test_corrupt_mutates_payload_preserving_length(self):
        frames = _frames(100)
        plan = FaultPlan(flow=LaneFaults(corrupt_rate=0.5))
        injector = FaultInjector(plan, seed=2)
        out = injector.apply(frames)
        stats = injector.stats[LANE_FLOW]
        assert stats.corrupted > 0
        originals = {f.payload for f in frames}
        mutated = [f for f in out if f.payload not in originals]
        assert len(mutated) == stats.corrupted
        assert all(len(f.payload) == 64 for f in out)

    def test_truncate_shortens_and_can_reach_zero(self):
        frames = _frames(400, size=3)
        plan = FaultPlan(flow=LaneFaults(truncate_rate=1.0))
        injector = FaultInjector(plan, seed=4)
        out = injector.apply(frames)
        assert injector.stats[LANE_FLOW].truncated == len(frames)
        lengths = {len(f.payload) for f in out}
        assert lengths <= {0, 1, 2}
        assert 0 in lengths, "zero-length truncation must be reachable"

    def test_stall_accumulates_and_skew_shifts_timestamps(self):
        frames = _frames(50)
        plan = FaultPlan(flow=LaneFaults(
            stall_rate=1.0, stall_seconds=0.5, clock_skew=100.0,
        ))
        injector = FaultInjector(plan, seed=6)
        out = injector.apply(frames)
        assert injector.stats[LANE_FLOW].stalled == len(frames)
        # Frame i suffers (i+1) stalls of 0.5s plus the constant skew.
        for i, frame in enumerate(out):
            assert frame.ts == pytest.approx(float(i) + 100.0 + 0.5 * (i + 1))
        # Timestamps rewritten, delivery order untouched.
        assert [f.payload for f in out] == [f.payload for f in frames]

    def test_flush_releases_held_frames(self):
        frames = _frames(10)
        plan = FaultPlan(flow=LaneFaults(reorder_rate=1.0, reorder_window=50))
        injector = FaultInjector(plan, seed=8)
        out = injector.apply(frames)
        assert sorted(f.payload for f in out) == sorted(f.payload for f in frames)

    def test_inactive_plan_is_identity(self):
        frames = build_scenario("two-site", seed=7)
        out = FaultInjector(FaultPlan(), seed=0).apply(frames)
        assert out == list(frames)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    drop=st.floats(min_value=0.0, max_value=1.0),
    dup=st.floats(min_value=0.0, max_value=1.0),
    reorder=st.floats(min_value=0.0, max_value=1.0),
)
def test_frame_conservation_property(seed, drop, dup, reorder):
    """frames_out == frames_in - dropped + duplicated, for any plan/seed."""
    frames = _frames(80)
    plan = FaultPlan(flow=LaneFaults(
        drop_rate=drop, duplicate_rate=dup, reorder_rate=reorder,
    ))
    injector = FaultInjector(plan, seed=seed)
    out = injector.apply(frames)
    stats = injector.stats[LANE_FLOW]
    assert stats.frames_in == len(frames)
    assert stats.frames_out == len(frames) - stats.dropped + stats.duplicated
    assert len(out) == stats.frames_out


def test_dns_lane_clock_skew_shifts_timestamps():
    frames = [
        CaptureFrame(ts=1.0, lane=LANE_DNS, payload=b"aa"),
        CaptureFrame(ts=2.0, lane=LANE_DNS, payload=b"bb"),
    ]
    plan = FaultPlan(dns=LaneFaults(clock_skew=10.0))
    out = FaultInjector(plan, seed=0).apply(frames)
    assert [(f.ts, f.lane, f.payload) for f in out] == [
        (11.0, LANE_DNS, b"aa"), (12.0, LANE_DNS, b"bb"),
    ]
