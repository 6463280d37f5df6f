"""Run a capture through the live engine, deterministically.

One entry point — :func:`replay_capture` — runs the async engine, which
stores every DNS record of a finite source before the first flow
correlates; that is what makes offline replay reproducible.

With identical ordering and identical wire bytes, every batch layout
must produce identical output rows and report stats — that is the
contract the differential harness (``tests/test_replay_differential.py``)
pins on the golden corpus.
"""

from __future__ import annotations

from typing import Optional, TextIO

from repro.core.async_engine import AsyncEngine
from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.metrics import EngineReport
from repro.replay.capture import probe_capture
from repro.replay.faults import FaultInjector, resolve_fault_plan
from repro.replay.source import CaptureLike, replay_sources


def replay_capture(
    capture: CaptureLike,
    config: Optional[FlowDNSConfig | EngineConfig] = None,
    sink: Optional[TextIO] = None,
) -> EngineReport:
    """Replay a capture (path or frames) through the async engine.

    ``config`` may be a full :class:`EngineConfig`; its ``realtime``,
    ``speed`` and fault fields then take effect. ``realtime=True`` paces
    items by the recorded inter-arrival gaps (divided by ``speed``); the
    default replays at max speed, which with the DNS-before-flows
    ordering is fully deterministic. The pump task waits out each gap
    with ``asyncio.sleep`` and offers paced items without backpressure,
    so a recorded burst that overflows the bounded ingress buffer is
    dropped and counted there (``overall_loss_rate`` plus a warning) —
    the paper's buffer-loss behaviour, reproducible run after run.

    A fault plan (``fault_profile`` / ``fault_rates``) perturbs the
    capture *before* it reaches the engine, deterministically in
    ``fault_seed`` — the same seed over the same capture yields
    bit-identical faulted frames, so the chaos differential harness can
    compare runs on equal footing.
    """
    if isinstance(capture, str):
        # Missing file / not-a-capture must fail here, cleanly — not
        # inside a pump task after the engine has spun up. (A
        # *truncated* capture still replays: every cleanly-framed item
        # flows through and the failure lands in report.warnings.)
        probe_capture(capture)
    engine_config = EngineConfig.of(config)
    if engine_config.fault_profile or engine_config.fault_rates:
        faults = resolve_fault_plan(
            engine_config.fault_profile, engine_config.fault_rates
        )
        if faults.active:
            seed = engine_config.fault_seed
            injector = FaultInjector(faults, seed=seed if seed is not None else 0)
            capture = injector.apply(capture)
    engine = AsyncEngine(engine_config, sink=sink)
    dns, flows = replay_sources(
        capture, realtime=engine_config.realtime, speed=engine_config.speed
    )
    return engine.run(dns, flows)
