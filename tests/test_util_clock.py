"""Tests for repro.util.clock."""

import time

from repro.util.clock import MonotonicClock


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
