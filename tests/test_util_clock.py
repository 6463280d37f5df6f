"""Tests for repro.util.clock."""

import time

from repro.util.clock import MonotonicClock, SimClock, SystemClock


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock(100.0).now() == 100.0

    def test_default_start_is_zero(self):
        assert SimClock().now() == 0.0

    def test_advance_to_moves_forward(self):
        clock = SimClock()
        clock.advance_to(50.0)
        assert clock.now() == 50.0

    def test_advance_to_never_moves_backwards(self):
        clock = SimClock(100.0)
        clock.advance_to(10.0)
        assert clock.now() == 100.0

    def test_advance_to_same_time_is_noop(self):
        clock = SimClock(5.0)
        clock.advance_to(5.0)
        assert clock.now() == 5.0

    def test_repr_mentions_time(self):
        assert "3.000" in repr(SimClock(3.0))


class TestMonotonicClock:
    def test_never_goes_backwards(self):
        clock = MonotonicClock()
        readings = [clock.now() for _ in range(50)]
        assert readings == sorted(readings)

    def test_tracks_monotonic_time(self):
        clock = MonotonicClock()
        before = time.monotonic()
        now = clock.now()
        after = time.monotonic()
        assert before <= now <= after


class TestSystemClock:
    def test_tracks_wall_time(self):
        clock = SystemClock()
        before = time.time()
        now = clock.now()
        after = time.time()
        assert before <= now <= after

    def test_advance_to_is_noop(self):
        clock = SystemClock()
        clock.advance_to(0.0)  # must not raise or affect anything
        assert clock.now() >= 0.0
