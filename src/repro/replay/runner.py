"""Run a capture through any live engine, deterministically.

One entry point — :func:`replay_capture` — runs both live engines with
``dns_first=True``: per-shard FIFO queues (``sharded``) and the fill
barrier (``async``) store every DNS record before the first flow
correlates, which is what makes offline replay reproducible.

With identical ordering and identical wire bytes, every engine must
produce identical output rows and merged report stats — that is the
contract the differential harness (``tests/test_replay_differential.py``)
pins on the golden corpus.
"""

from __future__ import annotations

from typing import Optional, TextIO

from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.metrics import EngineReport
from repro.core.variants import REPLAY_ENGINES, engine_for
from repro.replay.capture import probe_capture
from repro.replay.faults import FaultInjector, FaultPlan, resolve_fault_plan
from repro.replay.source import CaptureLike, replay_sources
from repro.util.errors import ConfigError


def replay_capture(
    capture: CaptureLike,
    engine: str = "async",
    config: Optional[FlowDNSConfig | EngineConfig] = None,
    sink: Optional[TextIO] = None,
    realtime: Optional[bool] = None,
    speed: Optional[float] = None,
    num_shards: Optional[int] = None,
    faults: Optional[FaultPlan | str] = None,
    fault_seed: Optional[int] = None,
) -> EngineReport:
    """Replay a capture (path or frames) through one engine; returns its report.

    ``config`` may be a full :class:`EngineConfig`, in which case its
    ``shards``/``realtime``/``speed`` fields are the defaults and the
    explicit keyword arguments override them (the keywords keep their
    pre-EngineConfig behaviour for existing callers).

    ``realtime=True`` paces items by the recorded inter-arrival gaps
    (divided by ``speed``); the default replays at max speed, which with
    the DNS-before-flows ordering is fully deterministic. Under
    ``engine="async"`` the pump task waits out each gap with
    ``asyncio.sleep`` and offers paced items without backpressure, so a
    recorded burst that overflows the bounded ingress buffer is dropped
    and counted there (``overall_loss_rate`` plus a warning) — the
    paper's buffer-loss behaviour, reproducible run after run.

    ``faults`` perturbs the capture *before* it reaches the engine: a
    :class:`~repro.replay.faults.FaultPlan`, a profile name from
    :data:`~repro.replay.faults.FAULT_PROFILES`, or None to fall back
    to the fault fields of an ``EngineConfig`` passed as ``config``.
    Perturbation is deterministic in ``fault_seed`` — the same seed
    over the same capture yields bit-identical faulted frames, so the
    chaos differential harness can compare engines on equal footing.
    """
    if engine not in REPLAY_ENGINES:
        raise ConfigError(
            f"cannot replay through engine {engine!r}; choose one of {REPLAY_ENGINES}"
        )
    if isinstance(capture, str):
        # Missing file / not-a-capture must fail here, cleanly — not
        # inside a pump task after the engine has spun up. (A
        # *truncated* capture still replays: every cleanly-framed item
        # flows through and the failure lands in report.warnings.)
        probe_capture(capture)
    engine_config = EngineConfig.of(config)
    if realtime is None:
        realtime = engine_config.realtime
    if speed is None:
        speed = engine_config.speed
    if num_shards is None:
        num_shards = engine_config.shards
    if faults is None and (
        engine_config.fault_profile or engine_config.fault_rates
    ):
        faults = resolve_fault_plan(
            engine_config.fault_profile, engine_config.fault_rates
        )
    elif isinstance(faults, str):
        faults = resolve_fault_plan(faults, None)
    if fault_seed is None:
        fault_seed = engine_config.fault_seed
    if faults is not None and faults.active:
        injector = FaultInjector(
            faults, seed=fault_seed if fault_seed is not None else 0
        )
        capture = injector.apply(capture)
    instance = engine_for(engine, config=engine_config, sink=sink, num_shards=num_shards)
    dns_sources, flow_sources = replay_sources(capture, realtime=realtime, speed=speed)
    return instance.run(dns_sources, flow_sources, dns_first=True)
