"""Clock abstractions.

FlowDNS's mechanisms are all time-driven: clear-up intervals, buffer
rotation, TTL expiry, diurnal load. The engines take their time from
record timestamps; a :class:`repro.replay.capture.CaptureWriter` stamps
frames with a :class:`MonotonicClock` unless given another
:class:`Clock`.
"""

from __future__ import annotations

import time as _time


class Clock:
    """Interface: something that can report the current UNIX timestamp."""

    def now(self) -> float:
        raise NotImplementedError


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

