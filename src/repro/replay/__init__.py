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

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.replay.capture": "CaptureDecoder CaptureFrame CaptureWriter LANES LANE_DNS "
    "LANE_FLOW MAGIC MAX_FRAME_PAYLOAD encode_frame probe_capture read_capture "
    "write_capture",
    "repro.replay.faults": "FAULT_PROFILES FaultInjector FaultPlan FaultStats LaneFaults "
    "parse_fault_specs resolve_fault_plan",
    "repro.replay.runner": "replay_capture",
    "repro.replay.scenarios": "GOLDEN_SEED SCENARIOS build_scenario write_scenario",
    "repro.replay.source": "ReplaySource replay_sources",
})
