"""Deterministic, seeded fault injection for captures and ingest sources.

The paper's collection points see hostile input by default: UDP export
loses, duplicates, and reorders datagrams; TCP DNS streams corrupt and
truncate mid-frame; exporter clocks stall and skew. This module turns
those failure modes into a reproducible instrument:

* a :class:`FaultPlan` declares per-lane perturbation rates — drop,
  duplicate, bounded-window reorder, byte corruption, frame truncation,
  stall (cumulative timing gaps), and clock skew;
* a :class:`FaultInjector` applies a plan to a capture (path or frame
  iterable) or wraps a single ingest source, using
  :func:`repro.util.rng.derive_rng` with a per-lane label so the two
  lanes perturb **independently** — adding faults to one lane never
  changes the other lane's byte stream;
* :data:`FAULT_PROFILES` names curated plans (``lossy-udp``,
  ``flaky-tcp``, ``skewed-exporter``, ``everything``) for the CLI's
  ``flowdns replay --fault-profile`` and the chaos differential suite.

The reproducibility contract: the faulted stream is a pure function of
``(input frames, plan, seed)``. The same ``--fault-seed`` reproduces the
identical perturbed byte stream bit-for-bit, so any chaos failure is
replayable — and because perturbation happens *before* the engine,
every batch layout fed the same faulted stream must still produce
identical rows (the differential harness pins exactly that).

Frame order, not timestamps, is delivery order for a capture (the
engines replay frames in file order; timestamps pace ``--realtime`` runs
and stamp DNS records). Reordering therefore permutes the frame
*sequence* within a bounded window, and stall/skew faults rewrite the
*timestamps* without re-sorting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.replay.capture import LANE_DNS, LANES, CaptureFrame, read_capture
from repro.util.errors import ConfigError
from repro.util.rng import derive_rng

CaptureLike = Union[str, Iterable[CaptureFrame]]

#: Rate-valued fault knobs (probability per frame, in [0, 1]).
_RATE_FIELDS = (
    "drop_rate",
    "duplicate_rate",
    "reorder_rate",
    "corrupt_rate",
    "truncate_rate",
    "stall_rate",
)

#: CLI spec shorthand (``--fault drop=0.05``) → LaneFaults field.
_SPEC_ALIASES = {
    "drop": "drop_rate",
    "duplicate": "duplicate_rate",
    "reorder": "reorder_rate",
    "corrupt": "corrupt_rate",
    "truncate": "truncate_rate",
    "stall": "stall_rate",
    "reorder_window": "reorder_window",
    "stall_seconds": "stall_seconds",
    "clock_skew": "clock_skew",
}


@dataclass(frozen=True)
class LaneFaults:
    """Perturbation rates for one capture lane.

    Rates are per-frame probabilities. ``reorder_window`` bounds how many
    subsequent same-lane frames a reordered frame can be delayed past;
    ``stall_seconds`` is the timing gap one stall inserts (stalls
    accumulate — every later frame on the lane shifts too, like a paused
    exporter catching up); ``clock_skew`` is a constant offset added to
    every frame timestamp (a wrong exporter clock).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_window: int = 4
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 0.25
    clock_skew: float = 0.0

    def __post_init__(self):
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.reorder_window < 1:
            raise ConfigError("reorder_window must be at least 1")
        if self.stall_seconds < 0:
            raise ConfigError("stall_seconds must be non-negative")

    @property
    def active(self) -> bool:
        """True when this lane perturbs anything at all."""
        return any(getattr(self, name) > 0 for name in _RATE_FIELDS) or (
            self.clock_skew != 0.0
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete perturbation recipe: one :class:`LaneFaults` per lane."""

    dns: LaneFaults = field(default_factory=LaneFaults)
    flow: LaneFaults = field(default_factory=LaneFaults)
    description: str = ""

    def lane(self, lane: str) -> LaneFaults:
        if lane not in LANES:
            raise ConfigError(f"unknown fault lane {lane!r}; known: {LANES}")
        return self.dns if lane == LANE_DNS else self.flow

    @property
    def active(self) -> bool:
        return self.dns.active or self.flow.active

    @classmethod
    def symmetric(cls, description: str = "", **rates) -> "FaultPlan":
        """The same :class:`LaneFaults` knobs applied to both lanes."""
        return cls(
            dns=LaneFaults(**rates), flow=LaneFaults(**rates), description=description
        )


#: The curated profile library (``flowdns replay --fault-profile``).
FAULT_PROFILES: Dict[str, FaultPlan] = {
    "lossy-udp": FaultPlan(
        flow=LaneFaults(drop_rate=0.08, duplicate_rate=0.04, reorder_rate=0.06),
        description="UDP export impairment: the flow lane loses, "
        "duplicates, and reorders datagrams; DNS untouched",
    ),
    "flaky-tcp": FaultPlan(
        dns=LaneFaults(
            drop_rate=0.02,
            corrupt_rate=0.03,
            truncate_rate=0.05,
            stall_rate=0.02,
            stall_seconds=0.05,
        ),
        description="TCP DNS stream impairment: corrupted and truncated "
        "messages plus delivery stalls; flows untouched",
    ),
    "skewed-exporter": FaultPlan(
        dns=LaneFaults(clock_skew=-30.0),
        flow=LaneFaults(clock_skew=120.0, reorder_rate=0.05),
        description="clock trouble: DNS stamps run 30s slow, the "
        "exporter clock 120s fast with mild reordering",
    ),
    "everything": FaultPlan(
        dns=LaneFaults(
            drop_rate=0.03,
            duplicate_rate=0.02,
            reorder_rate=0.04,
            corrupt_rate=0.02,
            truncate_rate=0.03,
            stall_rate=0.02,
            stall_seconds=0.1,
            clock_skew=-15.0,
        ),
        flow=LaneFaults(
            drop_rate=0.05,
            duplicate_rate=0.03,
            reorder_rate=0.05,
            corrupt_rate=0.03,
            truncate_rate=0.02,
            stall_rate=0.01,
            stall_seconds=0.1,
            clock_skew=60.0,
        ),
        description="every fault on both lanes at moderate rates — the "
        "worst day the collectors should still account for",
    ),
}


def parse_fault_specs(specs: Sequence[str]) -> Dict[str, float]:
    """Parse CLI ``NAME=VALUE`` fault specs into LaneFaults field values.

    Accepts the shorthand names (``drop``, ``corrupt``, …) plus the
    non-rate knobs (``reorder_window``, ``stall_seconds``,
    ``clock_skew``). Raises :class:`ConfigError` on unknown names or
    unparseable values; range validation happens in
    :class:`LaneFaults`.
    """
    values: Dict[str, float] = {}
    for spec in specs:
        name, sep, raw = spec.partition("=")
        if not sep:
            raise ConfigError(
                f"--fault expects NAME=VALUE, got {spec!r} "
                f"(names: {', '.join(sorted(_SPEC_ALIASES))})"
            )
        fault_field = _SPEC_ALIASES.get(name.strip())
        if fault_field is None:
            raise ConfigError(
                f"unknown fault {name.strip()!r}; known: "
                f"{', '.join(sorted(_SPEC_ALIASES))}"
            )
        try:
            value = int(raw) if fault_field == "reorder_window" else float(raw)
        except ValueError:
            raise ConfigError(f"fault {name.strip()!r} needs a number, got {raw!r}")
        values[fault_field] = value
    return values


def resolve_fault_plan(
    profile: Optional[str] = None, specs: Optional[Sequence[str]] = None
) -> Optional[FaultPlan]:
    """Combine a named profile and/or custom ``NAME=VALUE`` specs.

    Custom specs overlay the profile symmetrically (both lanes); either
    part may be absent. Returns None when neither is given. Raises
    :class:`ConfigError` on an unknown profile or a bad spec.
    """
    if profile is None and not specs:
        return None
    if profile is not None:
        plan = FAULT_PROFILES.get(profile)
        if plan is None:
            raise ConfigError(
                f"unknown fault profile {profile!r}; known: "
                f"{', '.join(sorted(FAULT_PROFILES))}"
            )
    else:
        plan = FaultPlan()
    if specs:
        overrides = parse_fault_specs(specs)
        plan = FaultPlan(
            dns=dataclasses.replace(plan.dns, **overrides),
            flow=dataclasses.replace(plan.flow, **overrides),
            description=plan.description,
        )
    return plan


@dataclass
class FaultStats:
    """What the injector did to one lane (reset per application)."""

    frames_in: int = 0
    frames_out: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0
    truncated: int = 0
    stalled: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class _LaneState:
    """The per-lane perturbation pipeline over ``(ts, payload)`` pairs.

    One RNG per lane, derived from ``(seed, lane)`` — consuming draws
    only for this lane's frames, so the same lane produces the same
    perturbation whether it is faulted alone (a wrapped source) or
    interleaved with the other lane (a whole capture).

    Per frame, decision draws happen in a fixed order (drop → corrupt →
    truncate → duplicate → stall → reorder); the output permutation and
    payload mutations are fully determined by the draw sequence.
    """

    def __init__(self, faults: LaneFaults, seed: int, lane: str):
        self.faults = faults
        self.rng = derive_rng(seed, f"fault:{lane}")
        self.stats = FaultStats()
        #: Cumulative timing offset from stalls (every later frame shifts).
        self._stall_offset = 0.0
        #: Reorder hold queue: ``[countdown, (ts, payload)]`` entries; a
        #: held frame is released after ``countdown`` more emissions.
        self._held: List[List] = []

    def _emit(self, item: Tuple[float, bytes], out: List[Tuple[float, bytes]]) -> None:
        out.append(item)
        self.stats.frames_out += 1
        for entry in self._held:
            entry[0] -= 1
        released = [entry for entry in self._held if entry[0] <= 0]
        if released:
            # Detach before recursing: a freed frame counts as an
            # emission and can in turn free later-held frames, which
            # must not be double-released by this stack frame.
            self._held = [entry for entry in self._held if entry[0] > 0]
            for entry in released:
                self._emit(entry[1], out)

    def feed(self, ts: float, payload: bytes) -> List[Tuple[float, bytes]]:
        """Perturb one frame; returns zero or more ``(ts, payload)``."""
        faults = self.faults
        rng = self.rng
        stats = self.stats
        stats.frames_in += 1
        out: List[Tuple[float, bytes]] = []

        if faults.drop_rate and rng.random() < faults.drop_rate:
            stats.dropped += 1
            return out

        if faults.corrupt_rate and payload and rng.random() < faults.corrupt_rate:
            mutated = bytearray(payload)
            flips = 1 + rng.randrange(min(3, len(mutated)))
            for _ in range(flips):
                pos = rng.randrange(len(mutated))
                mutated[pos] ^= 1 + rng.randrange(255)
            payload = bytes(mutated)
            stats.corrupted += 1

        if faults.truncate_rate and payload and rng.random() < faults.truncate_rate:
            # Strictly shorter; zero-length payloads are deliberately in
            # range (the decoders must account for them, not choke).
            payload = payload[: rng.randrange(len(payload))]
            stats.truncated += 1

        copies = 1
        if faults.duplicate_rate and rng.random() < faults.duplicate_rate:
            copies = 2
            stats.duplicated += 1

        if faults.stall_rate and rng.random() < faults.stall_rate:
            self._stall_offset += faults.stall_seconds
            stats.stalled += 1
        ts = ts + faults.clock_skew + self._stall_offset

        for _ in range(copies):
            item = (ts, payload)
            if faults.reorder_rate and rng.random() < faults.reorder_rate:
                delay = 1 + rng.randrange(faults.reorder_window)
                self._held.append([delay, item])
                stats.reordered += 1
            else:
                self._emit(item, out)
        return out

    def flush(self) -> List[Tuple[float, bytes]]:
        """Release every still-held frame (in hold order) at stream end."""
        out: List[Tuple[float, bytes]] = []
        held, self._held = self._held, []
        for _countdown, item in held:
            out.append(item)
            self.stats.frames_out += 1
        return out


class FaultedSource:
    """An ingest source wrapped with per-item faults (one lane).

    Implements the ingest-source protocol by proxy — ``ingest_stats``,
    ``ingest_errors``, and ``close()`` pass through to the wrapped
    source — so engines account the *unfaulted* arrivals while the items
    they actually see are the perturbed ones. Items may be raw ``bytes``
    (flow lane) or ``(ts, payload)`` tuples (DNS lane); timing faults
    apply only where a timestamp exists to rewrite.

    Each iteration re-derives the lane RNG, so one wrapper replays the
    identical perturbation across several engine runs.
    """

    def __init__(self, source, lane: str, plan: FaultPlan, seed: int = 0):
        if lane not in LANES:
            raise ConfigError(f"unknown fault lane {lane!r}; known: {LANES}")
        self._source = source
        self.lane = lane
        self.plan = plan
        self.seed = seed
        self.fault_stats = FaultStats()

    @property
    def ingest_stats(self):
        return getattr(self._source, "ingest_stats", None)

    @property
    def ingest_errors(self):
        return getattr(self._source, "ingest_errors", ())

    def close(self) -> None:
        close = getattr(self._source, "close", None)
        if close is not None:
            close()

    def __iter__(self) -> Iterator:
        state = _LaneState(self.plan.lane(self.lane), self.seed, self.lane)
        self.fault_stats = state.stats
        tupled = self.lane == LANE_DNS
        for item in self._source:
            if isinstance(item, tuple) and len(item) == 2:
                ts, payload = item
            else:
                ts, payload = 0.0, item
            for out_ts, out_payload in state.feed(ts, payload):
                yield (out_ts, out_payload) if tupled else out_payload
        for out_ts, out_payload in state.flush():
            yield (out_ts, out_payload) if tupled else out_payload


class FaultInjector:
    """Apply one :class:`FaultPlan` deterministically.

    ``apply`` perturbs a whole capture into a materialised frame list
    (both lanes, independently seeded); ``wrap_source`` wraps a single
    ingest source lazily. Either way the output is a pure function of
    ``(input, plan, seed)`` — :attr:`stats` (per-lane
    :class:`FaultStats`) describes the most recent application.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self.stats: Dict[str, FaultStats] = {
            lane: FaultStats() for lane in LANES
        }

    def apply(self, capture: CaptureLike) -> List[CaptureFrame]:
        """Fault every frame of a capture, preserving file order.

        The faulted list is safe to hand to several engine runs: it is a
        plain re-iterable frame sequence, so every run replays the
        *identical* perturbed stream (the differential contract).
        Reordered frames move within their lane only; the output is
        **not** re-sorted by timestamp — frame order is delivery order.
        """
        frames: Iterable[CaptureFrame]
        if isinstance(capture, str):
            frames = read_capture(capture)
        else:
            frames = capture
        states = {
            lane: _LaneState(self.plan.lane(lane), self.seed, lane)
            for lane in LANES
        }
        out: List[CaptureFrame] = []
        for frame in frames:
            state = states[frame.lane]
            for ts, payload in state.feed(frame.ts, frame.payload):
                out.append(CaptureFrame(ts=ts, lane=frame.lane, payload=payload))
        for lane in LANES:
            for ts, payload in states[lane].flush():
                out.append(CaptureFrame(ts=ts, lane=lane, payload=payload))
        self.stats = {lane: states[lane].stats for lane in LANES}
        return out

    def wrap_source(self, source, lane: str) -> FaultedSource:
        """Wrap one ingest source with this plan's faults for ``lane``."""
        return FaultedSource(source, lane, self.plan, seed=self.seed)
