"""Parameter-sweep harness over generated workloads.

``run_many`` for the synthetic generator: take a cartesian grid —
client count × Zipf exponent × CNAME-chain depth on the workload side,
engine × fault profile on the replay side — generate each point's
capture once (streaming, via :mod:`repro.workloads.generator`), replay
it through every requested engine/fault leg with
:func:`repro.replay.runner.replay_capture`, assert the accounting
invariants from :mod:`repro.core.invariants` on every report, and
collect one row of throughput / loss / match-rate numbers per
(config, leg). Rows land in the bench JSON under
``workload_sweep_rows`` so CI trends them alongside the other
benchmarks.

A sweep is the repo's honest scale claim: every number in the row set
comes from wire bytes that went through the same decode → fill →
correlate path production traffic would.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from io import StringIO
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import EngineConfig
from repro.core.invariants import assert_invariants
from repro.core.variants import REPLAY_ENGINES
from repro.replay.runner import replay_capture
from repro.util.benchio import record_bench
from repro.util.errors import ConfigError
from repro.workloads.generator import GeneratorParams, WorkloadGenerator

#: Bench-JSON key the sweep's row list is recorded under.
SWEEP_BENCH_KEY = "workload_sweep_rows"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: workload axes × replay legs over a shared base config.

    ``fault_profiles`` may contain ``None`` for the fault-free baseline
    leg (the default). Replay-leg knobs (``shards``, ``fault_seed``)
    follow :meth:`EngineConfig.for_replay_leg` applicability rules —
    they are applied only to the legs they mean something to, and the
    spec rejects combinations that would silently not apply.
    """

    # --- workload axes ---------------------------------------------------
    clients: Tuple[int, ...] = (2000,)
    zipf_alphas: Tuple[float, ...] = (0.9,)
    chain_depths: Tuple[int, ...] = (4,)
    # --- replay legs -----------------------------------------------------
    engines: Tuple[str, ...] = REPLAY_ENGINES
    fault_profiles: Tuple[Optional[str], ...] = (None,)
    # --- shared workload base --------------------------------------------
    base: GeneratorParams = field(default_factory=GeneratorParams)
    # --- replay-leg knobs ------------------------------------------------
    shards: Optional[int] = None
    fault_seed: Optional[int] = None

    def __post_init__(self):
        for name, axis in (
            ("clients", self.clients),
            ("zipf_alphas", self.zipf_alphas),
            ("chain_depths", self.chain_depths),
            ("engines", self.engines),
            ("fault_profiles", self.fault_profiles),
        ):
            if not axis:
                raise ConfigError(f"sweep axis {name} is empty")
        for engine in self.engines:
            if engine not in REPLAY_ENGINES:
                raise ConfigError(
                    f"unknown replay engine {engine!r}; choose from "
                    f"{REPLAY_ENGINES}"
                )
        if self.shards is not None and "sharded" not in self.engines:
            raise ConfigError("shards only apply when the sweep includes "
                              "the sharded engine")
        if self.fault_seed is not None and tuple(self.fault_profiles) == (None,):
            raise ConfigError(
                "fault_seed requires at least one fault profile leg; a "
                "seed alone injects nothing"
            )
        # Validate every replay leg and workload point eagerly: a sweep
        # that would die on its last cell hours in is a wasted run.
        for engine in self.engines:
            for profile in self.fault_profiles:
                self.leg_config(engine, profile)
        for params in sweep_points(self):
            _ = params  # GeneratorParams validates in __post_init__

    def leg_config(self, engine: str, fault_profile: Optional[str]) -> EngineConfig:
        """The :class:`EngineConfig` for one (engine, fault profile) leg."""
        return EngineConfig.for_replay_leg(
            engine,
            shards=self.shards if engine == "sharded" else None,
            fault_profile=fault_profile,
            fault_seed=self.fault_seed if fault_profile is not None else None,
        )

    @classmethod
    def from_args(cls, args) -> "SweepSpec":
        """Build a spec from a parsed CLI namespace (presence-validated)."""
        base = GeneratorParams.from_args(_BaseArgs(args))
        overrides: Dict[str, object] = {"base": base}
        for flag, fname, cast in (
            ("clients_axis", "clients", int),
            ("zipf_axis", "zipf_alphas", float),
            ("depth_axis", "chain_depths", int),
        ):
            values = getattr(args, flag, None)
            if values is not None:
                overrides[fname] = tuple(cast(v) for v in values)
        engines = getattr(args, "engines", None)
        if engines is not None:
            overrides["engines"] = tuple(engines)
        profiles = getattr(args, "fault_profiles", None)
        if profiles is not None:
            overrides["fault_profiles"] = tuple(
                None if p in ("none", "") else p for p in profiles
            )
        for flag in ("shards", "fault_seed"):
            value = getattr(args, flag, None)
            if value is not None:
                overrides[flag] = value
        return cls(**overrides)


class _BaseArgs:
    """Adapter exposing a sweep namespace's *base* workload flags to
    :meth:`GeneratorParams.from_args` while hiding the axis flags (the
    axes, not the base, own clients/zipf/chain-depth in a sweep)."""

    _AXIS_OWNED = ("clients", "zipf_alpha", "chain_depth")

    def __init__(self, args):
        self._args = args

    def __getattr__(self, name):
        if name in self._AXIS_OWNED:
            return None
        return getattr(self._args, name, None)


def sweep_points(spec: SweepSpec) -> List[GeneratorParams]:
    """The cartesian workload grid, one :class:`GeneratorParams` each.

    Order is deterministic: clients outermost, then Zipf exponent, then
    chain depth — so row order (and every derived seed) is stable for a
    given spec.
    """
    points = []
    for clients in spec.clients:
        for alpha in spec.zipf_alphas:
            for depth in spec.chain_depths:
                points.append(
                    replace(
                        spec.base,
                        clients=clients,
                        zipf_alpha=alpha,
                        chain_depth=depth,
                    )
                )
    return points


def _point_label(params: GeneratorParams) -> str:
    return (
        f"c{params.clients}-a{params.zipf_alpha:g}-d{params.chain_depth}"
    )


def run_sweep(
    spec: SweepSpec,
    out_dir: str,
    bench_path: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    keep_captures: bool = False,
) -> List[Dict[str, object]]:
    """Run the whole sweep; returns (and bench-records) the row list.

    Each grid point's capture is generated once into ``out_dir`` and
    replayed through every (engine, fault profile) leg. Every report
    must pass :func:`assert_invariants` — for fault-free legs also the
    row-count check against the sink — before its row is recorded, so a
    sweep cannot quietly produce numbers from a run that lost
    accounting. Captures are deleted as soon as their legs finish unless
    ``keep_captures`` is set.
    """
    os.makedirs(out_dir, exist_ok=True)
    say = log if log is not None else (lambda message: None)
    rows: List[Dict[str, object]] = []
    points = sweep_points(spec)
    legs = [(e, p) for e in spec.engines for p in spec.fault_profiles]
    say(f"sweep: {len(points)} workload points x {len(legs)} legs")

    for params in points:
        label = _point_label(params)
        capture_path = os.path.join(out_dir, f"sweep-{label}.fdc")
        gen_report = WorkloadGenerator(params).write(capture_path)
        say(
            f"[{label}] generated {gen_report.flows} flows "
            f"({gen_report.flows_per_sec:,.0f}/s, "
            f"peak {gen_report.peak_pending} pending)"
        )
        try:
            for engine, profile in legs:
                config = spec.leg_config(engine, profile)
                sink = StringIO()
                # Wall-clock the replay here: EngineReport.duration is
                # the *simulated* span (only the simulation engine sets
                # it); a live replay's throughput is flows over real
                # elapsed time.
                leg_start = time.perf_counter()
                report = replay_capture(capture_path, engine, config, sink)
                leg_elapsed = time.perf_counter() - leg_start
                out_rows = sum(
                    1
                    for line in sink.getvalue().splitlines()
                    if line and not line.startswith("#")
                )
                if profile is None:
                    # Fault-free: every emitted row must be accounted for.
                    assert_invariants(report, rows=out_rows)
                else:
                    assert_invariants(report)
                delivered = report.flow_records
                matched = report.matched_flows
                rows.append(
                    {
                        "clients": params.clients,
                        "zipf_alpha": params.zipf_alpha,
                        "chain_depth": params.chain_depth,
                        "engine": engine,
                        "fault_profile": profile if profile else "none",
                        "generated_flows": gen_report.flows,
                        "gen_flows_per_sec": round(gen_report.flows_per_sec),
                        "delivered_flows": delivered,
                        "output_rows": out_rows,
                        "replay_flows_per_sec": (
                            round(delivered / leg_elapsed)
                            if leg_elapsed > 0
                            else 0
                        ),
                        "match_rate": (
                            round(matched / delivered, 6) if delivered else 0.0
                        ),
                        "loss_rate": round(
                            max(0.0, 1.0 - delivered / gen_report.flows), 6
                        )
                        if gen_report.flows
                        else 0.0,
                    }
                )
                say(
                    f"[{label}] {engine}/{profile or 'none'}: "
                    f"{delivered} delivered, match "
                    f"{rows[-1]['match_rate']:.3f}, loss "
                    f"{rows[-1]['loss_rate']:.3f}"
                )
        finally:
            if not keep_captures and os.path.exists(capture_path):
                os.unlink(capture_path)

    record_bench(SWEEP_BENCH_KEY, rows, path=bench_path)
    return rows
