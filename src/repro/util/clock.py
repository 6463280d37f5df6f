"""Clock abstractions.

FlowDNS's mechanisms are all time-driven: clear-up intervals, buffer
rotation, TTL expiry, diurnal load. The engines take their time from
record timestamps; a :class:`repro.replay.capture.CaptureWriter` stamps
frames with a :class:`MonotonicClock` unless given another
:class:`Clock` (a :class:`SimClock` advanced by hand, or the wall-clock
:class:`SystemClock`).
"""

from __future__ import annotations

import time as _time


class Clock:
    """Interface: something that can report the current UNIX timestamp."""

    def now(self) -> float:
        raise NotImplementedError

    def advance_to(self, ts: float) -> None:
        """Move time forward. No-op for real clocks."""


class SystemClock(Clock):
    """Wall-clock time, for live operation."""

    def now(self) -> float:
        return _time.time()


class MonotonicClock(Clock):
    """A never-backwards clock for interval measurement.

    Wall clocks can step (NTP slew, manual adjustment), which would
    corrupt recorded inter-arrival gaps; default capture timestamps
    (:mod:`repro.replay`) therefore come from this clock so replay can
    reproduce the gaps faithfully. (Live DNS frames are the exception:
    they carry the fill lane's wall-clock arrival stamp instead, because
    a replay must store records at the *identical* timestamps the live
    session used — that lane trades step-immunity for storage fidelity.)
    The absolute values are only meaningful within one process lifetime
    — exactly what a capture session is.
    """

    def now(self) -> float:
        return _time.monotonic()


class SimClock(Clock):
    """A manually advanced clock driven by record timestamps.

    Time never moves backwards: :meth:`advance_to` with an older timestamp
    leaves the clock unchanged, which mirrors how FlowDNS tracks the
    newest-seen record timestamp to decide when a clear-up interval has
    elapsed (Algorithm 1 uses ``d.ts - lastAClearUpTs``).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance_to(self, ts: float) -> None:
        if ts > self._now:
            self._now = float(ts)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f})"
