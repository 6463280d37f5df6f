"""Record-and-replay: durable capture artifacts for the live engine.

The paper's system runs against live, unrepeatable socket feeds; this
subpackage turns a feed into a file and a file back into a feed:

* :mod:`repro.replay.capture` — the length-framed on-disk format,
  the incremental :class:`CaptureDecoder`, and the :class:`CaptureWriter`
  tap the live ingest paths tee into;
* :mod:`repro.replay.source` — :class:`ReplaySource`, one capture lane
  as an engine stream source, timestamp-faithful or max speed;
* :mod:`repro.replay.runner` — :func:`replay_capture`, one capture
  through the async engine with deterministic DNS-before-flows ordering;
* :mod:`repro.replay.scenarios` — the scenario library behind the
  golden corpus (``tests/data/golden/``) and ``flowdns capture
  --scenario``;
* :mod:`repro.replay.faults` — deterministic, seeded fault injection
  (:class:`FaultPlan`/:class:`FaultInjector`) perturbing a capture's
  wire bytes and timing per lane, behind ``flowdns replay
  --fault-profile`` and :func:`replay_capture`'s ``faults=`` hook.
"""

from repro.replay.capture import (
    LANE_DNS,
    LANE_FLOW,
    LANES,
    MAGIC,
    MAX_FRAME_PAYLOAD,
    CaptureDecoder,
    CaptureFrame,
    CaptureWriter,
    encode_frame,
    load_capture,
    probe_capture,
    read_capture,
    write_capture,
)
from repro.replay.faults import (
    FAULT_PROFILES,
    FaultedSource,
    FaultInjector,
    FaultPlan,
    FaultStats,
    LaneFaults,
    parse_fault_specs,
    resolve_fault_plan,
)
from repro.replay.runner import replay_capture
from repro.replay.scenarios import (
    GOLDEN_SEED,
    SCENARIOS,
    build_scenario,
    write_scenario,
)
from repro.replay.source import ReplaySource, replay_sources

__all__ = [
    "CaptureDecoder",
    "CaptureFrame",
    "CaptureWriter",
    "FAULT_PROFILES",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FaultedSource",
    "GOLDEN_SEED",
    "LaneFaults",
    "LANES",
    "LANE_DNS",
    "LANE_FLOW",
    "MAGIC",
    "MAX_FRAME_PAYLOAD",
    "ReplaySource",
    "SCENARIOS",
    "build_scenario",
    "encode_frame",
    "load_capture",
    "parse_fault_specs",
    "probe_capture",
    "read_capture",
    "replay_capture",
    "replay_sources",
    "resolve_fault_plan",
    "write_capture",
    "write_scenario",
]
