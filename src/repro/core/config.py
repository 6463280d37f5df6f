"""FlowDNS configuration (the paper's Table 1, plus engine knobs).

Defaults are the deployed values from the paper:

* ``AClearUpInterval = 3600`` s — 99 % of A/AAAA TTLs are below this
  (Appendix A.6);
* ``CClearUpInterval = 7200`` s — 99 % of CNAME TTLs are below this;
* ``NUM_SPLIT = 10`` — "We empirically find that 10 splits are suitable
  for our scenario";
* CNAME loop limit 6 — ">99 % of CNAME chains are shorter" (Appendix A.4).

The ablation flags correspond one-to-one to the paper's benchmark
variants; :mod:`repro.core.variants` sets them.

:class:`FlowDNSConfig` describes *correlation* behaviour; on top of it,
:class:`EngineConfig` describes one *deployment* of an engine —
live-session bind addresses, socket buffer sizing, capture tap, replay
pacing. Every engine constructor and
:func:`repro.core.variants.engine_for` accept either
(:meth:`EngineConfig.of` normalises), and the CLI's per-mode flag
validation is :meth:`EngineConfig.from_args` — presence-based rejection
of flags that do not apply to the selected mode lives here, not in
``cli.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.netflow.records import FlowDirection
from repro.util.errors import ConfigError

#: Paper values (Appendix A.6).
DEFAULT_A_CLEAR_UP_INTERVAL = 3600.0
DEFAULT_C_CLEAR_UP_INTERVAL = 7200.0
#: Paper value (Section 3.2, step 5).
DEFAULT_NUM_SPLIT = 10
#: Paper value (Section 3.3, step 7 / Appendix A.4).
DEFAULT_CNAME_LOOP_LIMIT = 6


@dataclass
class FlowDNSConfig:
    """Complete configuration for a FlowDNS instance.

    Engine knobs (buffer capacities, batch size) default to values that
    behave well at this reproduction's scaled-down rates; Table-1
    parameters default to the paper's deployed constants.
    """

    # --- Table 1 parameters -------------------------------------------------
    a_clear_up_interval: float = DEFAULT_A_CLEAR_UP_INTERVAL
    c_clear_up_interval: float = DEFAULT_C_CLEAR_UP_INTERVAL
    #: Read only by :class:`repro.core.simulation.SimulationEngine`'s cost
    #: model (with :attr:`split_enabled`): one thread owns the store, so
    #: the maps themselves are not split.
    num_split: int = DEFAULT_NUM_SPLIT
    cname_loop_limit: int = DEFAULT_CNAME_LOOP_LIMIT

    # --- mechanism toggles (ablation variants) ------------------------------
    split_enabled: bool = True
    clear_up_enabled: bool = True
    rotation_enabled: bool = True
    long_enabled: bool = True
    exact_ttl: bool = False
    exact_ttl_sweep_interval: float = 60.0
    #: Memory bound per hashmap: each of the three tiers of each bank, or
    #: each bank's one map under exact-TTL. 0 = unbounded — the paper's
    #: batch runs rely on clear-up alone, but a week-long ``serve`` under
    #: CNAME churn needs the hard cap. Overflow evicts oldest-inserted
    #: entries (exact FIFO) and counts into
    #: :attr:`repro.core.metrics.EngineReport.evictions`.
    max_entries_per_map: int = 0

    # --- engine knobs --------------------------------------------------------
    direction: FlowDirection = FlowDirection.SOURCE
    stream_buffer_capacity: int = 65536
    memoize_cname_chains: bool = True
    #: Records drained per lane wake-up on the batched fast path. Larger
    #: batches amortise per-wake-up overhead and deduplicate repeated
    #: lookup IPs better, at the cost of coarser rotation/tick granularity.
    engine_batch_size: int = 2048

    def __post_init__(self):
        if self.a_clear_up_interval <= 0 or self.c_clear_up_interval <= 0:
            raise ConfigError("clear-up intervals must be positive")
        if self.num_split <= 0:
            raise ConfigError("num_split must be positive")
        if self.cname_loop_limit < 1:
            raise ConfigError("cname_loop_limit must be at least 1")
        if self.stream_buffer_capacity < 1:
            raise ConfigError("stream_buffer_capacity must be at least 1")
        if self.exact_ttl_sweep_interval <= 0:
            raise ConfigError("exact_ttl_sweep_interval must be positive")
        if self.engine_batch_size < 1:
            raise ConfigError("engine_batch_size must be at least 1")
        if self.max_entries_per_map < 0:
            raise ConfigError("max_entries_per_map must be non-negative")

    @property
    def effective_num_split(self) -> int:
        """1 when splitting is disabled (the *No Split* variant)."""
        return self.num_split if self.split_enabled else 1

    def replace(self, **changes) -> "FlowDNSConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


#: Live socket-session defaults shared by ``flowdns serve`` and live
#: ``flowdns capture`` (and by :class:`EngineConfig`'s field defaults).
DEFAULT_LIVE_HOST = "127.0.0.1"
DEFAULT_FLOW_PORT = 2055
DEFAULT_DNS_PORT = 8053

#: Default requested SO_RCVBUF for live UDP flow sockets: export bursts
#: land in the kernel buffer while the decode lane catches up. The
#: kernel clamps to rmem_max; the *achieved* size is surfaced in
#: :attr:`repro.core.metrics.IngestStats.recv_buffer_bytes`.
DEFAULT_RECV_BUFFER_BYTES = 4 << 20


@dataclass
class EngineConfig:
    """One engine deployment: a :class:`FlowDNSConfig` plus run wiring.

    The single construction surface for all engines: buffer sizes and
    correlation parameters ride in :attr:`flowdns`, everything that was
    previously kwarg sprawl across engine constructors and CLI handlers
    (capture tap, live bind addresses, socket buffer sizing, replay
    pacing) is a field here. Engines accept an
    ``EngineConfig``, a bare ``FlowDNSConfig``, or ``None`` —
    :meth:`of` normalises.
    """

    flowdns: FlowDNSConfig = field(default_factory=FlowDNSConfig)
    #: Optional :class:`repro.replay.capture.CaptureWriter` tee for live
    #: sources (every received wire unit recorded pre-decode).
    capture: Optional[object] = None
    # --- live session wiring (serve / live capture) ---------------------
    host: str = DEFAULT_LIVE_HOST
    flow_port: int = DEFAULT_FLOW_PORT
    dns_port: int = DEFAULT_DNS_PORT
    #: Seconds to serve before draining; 0 = until stop is requested.
    duration: float = 0.0
    #: Requested SO_RCVBUF for live UDP flow sockets (best-effort).
    recv_buffer_bytes: int = DEFAULT_RECV_BUFFER_BYTES
    # --- replay pacing --------------------------------------------------
    realtime: bool = False
    speed: float = 1.0
    # --- service lifecycle (serve) --------------------------------------
    #: Periodic crash-safe snapshot target (temp file + fsync + atomic
    #: rename); None disables snapshotting. Restore-on-start degrades
    #: gracefully: a corrupt or mismatched snapshot warns and the
    #: service starts empty.
    snapshot_path: Optional[str] = None
    #: Seconds between periodic snapshots (also the final-on-drain one).
    snapshot_interval: float = 60.0
    #: Seconds between live stats lines (0 = no periodic stats line).
    stats_interval: float = 0.0
    #: TCP port for the live Prometheus-exposition health endpoint;
    #: None disables it (0 = ephemeral, for tests).
    metrics_port: Optional[int] = None
    # --- replay fault injection -----------------------------------------
    #: Named profile from :data:`repro.replay.faults.FAULT_PROFILES`;
    #: None = no profile baseline.
    fault_profile: Optional[str] = None
    #: ``NAME=VALUE`` overrides applied symmetrically to both lanes on
    #: top of the profile (or on their own).
    fault_rates: Optional[Tuple[str, ...]] = None
    #: Seed for the deterministic per-lane fault RNGs (0 when faults are
    #: requested without an explicit seed).
    fault_seed: Optional[int] = None

    def __post_init__(self):
        if self.duration < 0:
            raise ConfigError("duration must be non-negative")
        if self.recv_buffer_bytes < 0:
            raise ConfigError("recv_buffer_bytes must be non-negative")
        if self.speed <= 0:
            raise ConfigError("speed must be positive")
        if self.snapshot_interval <= 0:
            raise ConfigError("snapshot_interval must be positive")
        if self.stats_interval < 0:
            raise ConfigError("stats_interval must be non-negative")
        if self.metrics_port is not None and self.metrics_port < 0:
            raise ConfigError("metrics_port must be non-negative")
        if self.snapshot_path is not None and self.flowdns.exact_ttl:
            raise ConfigError(
                "snapshots require the rotating store; the exact-TTL "
                "variant cannot be snapshotted (entries expire by wall "
                "time — a restore would resurrect stale records)"
            )
        if self.fault_seed is not None and not (
            self.fault_profile or self.fault_rates
        ):
            raise ConfigError(
                "fault_seed requires a fault plan (fault_profile or "
                "fault_rates); a seed alone injects nothing"
            )
        # Validate eagerly so a bad profile/spec fails at construction,
        # not mid-replay. Deferred import: faults.py must not import
        # config.py back.
        if self.fault_profile or self.fault_rates:
            from repro.replay.faults import resolve_fault_plan

            resolve_fault_plan(self.fault_profile, self.fault_rates)

    @classmethod
    def of(
        cls, config: Union["EngineConfig", FlowDNSConfig, None]
    ) -> "EngineConfig":
        """Normalise what engine constructors accept into an EngineConfig."""
        if config is None:
            return cls()
        if isinstance(config, FlowDNSConfig):
            return cls(flowdns=config)
        return config

    def replace(self, **changes) -> "EngineConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    # --- CLI flag interpretation ----------------------------------------

    @classmethod
    def from_args(cls, args, command: str) -> "EngineConfig":
        """Build an EngineConfig from a parsed CLI namespace, validating
        per-mode flag applicability.

        ``argparse`` keeps ``None`` defaults for every flag whose
        *presence* matters, so this layer — not the CLI — decides what an
        omitted flag means and rejects explicitly-passed flags the
        selected mode would silently ignore. Raises
        :class:`ConfigError` with the operator-facing message; the CLI
        prints it and exits 2.
        """
        speed = getattr(args, "speed", None)
        realtime = bool(getattr(args, "realtime", False))
        if speed is not None:
            if speed <= 0:
                raise ConfigError("--speed must be positive")
            if not realtime:
                raise ConfigError(
                    "--speed only applies to --realtime pacing; pass both"
                )
        if command == "capture":
            cls._validate_capture_mode(args)
        snapshot_path = getattr(args, "snapshot", None)
        snapshot_interval = getattr(args, "snapshot_interval", None)
        if snapshot_interval is not None:
            if snapshot_path is None:
                raise ConfigError(
                    "--snapshot-interval only applies with --snapshot PATH"
                )
            if snapshot_interval <= 0:
                raise ConfigError("--snapshot-interval must be positive")
        stats_interval = getattr(args, "stats_interval", None)
        if stats_interval is not None and stats_interval < 0:
            raise ConfigError("--stats-interval must be non-negative")
        metrics_port = getattr(args, "metrics_port", None)
        fault_profile = getattr(args, "fault_profile", None)
        fault_rates = getattr(args, "fault", None)
        fault_seed = getattr(args, "fault_seed", None)
        if fault_seed is not None and not (fault_profile or fault_rates):
            raise ConfigError(
                "--fault-seed requires --fault-profile or --fault; a seed "
                "alone injects nothing"
            )
        max_entries = getattr(args, "max_entries", None)
        if max_entries is not None and max_entries < 0:
            raise ConfigError("--max-entries must be non-negative")
        flowdns = FlowDNSConfig(
            exact_ttl=bool(getattr(args, "exact_ttl", False)),
            max_entries_per_map=max_entries if max_entries is not None else 0,
        )
        host = getattr(args, "host", None)
        flow_port = getattr(args, "flow_port", None)
        dns_port = getattr(args, "dns_port", None)
        duration = getattr(args, "duration", None)
        return cls(
            flowdns=flowdns,
            host=host if host is not None else DEFAULT_LIVE_HOST,
            flow_port=flow_port if flow_port is not None else DEFAULT_FLOW_PORT,
            dns_port=dns_port if dns_port is not None else DEFAULT_DNS_PORT,
            duration=(
                duration
                if duration is not None
                else (60.0 if command == "capture" else 0.0)
            ),
            realtime=realtime,
            speed=speed if speed is not None else 1.0,
            snapshot_path=snapshot_path,
            snapshot_interval=(
                snapshot_interval if snapshot_interval is not None else 60.0
            ),
            stats_interval=stats_interval if stats_interval is not None else 0.0,
            metrics_port=metrics_port,
            fault_profile=fault_profile,
            fault_rates=tuple(fault_rates) if fault_rates else None,
            fault_seed=fault_seed,
        )

    @staticmethod
    def _validate_capture_mode(args) -> None:
        """``flowdns capture``'s two modes take disjoint options; an
        explicitly-passed flag the selected mode ignores is a mistake."""
        if getattr(args, "scenario", None) is not None:
            passed = [
                flag
                for flag, value in (
                    ("--host", getattr(args, "host", None)),
                    ("--flow-port", getattr(args, "flow_port", None)),
                    ("--dns-port", getattr(args, "dns_port", None)),
                    ("--duration", getattr(args, "duration", None)),
                )
                if value is not None
            ]
            if passed:
                raise ConfigError(
                    f"{'/'.join(passed)} only appl"
                    f"{'ies' if len(passed) == 1 else 'y'} to live capture; "
                    "drop with --scenario"
                )
        elif getattr(args, "seed", None) is not None:
            raise ConfigError("--seed only applies to --scenario synthesis")
