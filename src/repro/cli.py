"""flowdns — command-line interface to the FlowDNS reproduction.

Subcommands:

* ``flowdns simulate`` — run a preset deployment (large/small ISP) for a
  chosen simulated duration and print the headline report;
* ``flowdns ablation`` — re-run the Section 4 benchmark variants;
* ``flowdns correlate`` — offline correlation of *your own* DNS and flow
  files (CSV or JSON-lines) via a field-mapping config, writing the
  standard TSV output — the paper's "other data formats … in a
  configuration file" feature;
* ``flowdns serve`` — the live service: bind real sockets (NetFlow/IPFIX
  over UDP, length-framed DNS over TCP) and correlate as traffic
  arrives, via the asyncio engine (``--capture`` tees the wire bytes
  into a replayable capture file);
* ``flowdns capture`` — produce a capture file: either record live
  sockets for a bounded duration, or synthesize a scenario from the
  library in :mod:`repro.replay.scenarios`;
* ``flowdns replay`` — feed a capture through the live (async) engine,
  timestamp-faithful or at max speed;
* ``flowdns generate`` — synthesize an internet-scale workload capture:
  Zipf domain popularity, heavy-tailed flow sizes, Poisson arrivals,
  streamed to disk in bounded memory;
* ``flowdns sweep`` — generate a parameter grid of workloads and replay
  every point through the requested fault profiles, writing
  per-config rows to ``<out_dir>/sweep-rows.json``;
* ``flowdns analyze`` — post-process a FlowDNS output file: per-service
  volume, RFC 1035 violations, correlation rate.

Run ``flowdns <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from repro.core.adapter import iter_csv, iter_jsonl, load_mapping_file
from repro.core.config import (
    DEFAULT_DNS_PORT,
    DEFAULT_FLOW_PORT,
    DEFAULT_LIVE_HOST,
    EngineConfig,
)
from repro.core.simulation import SimulationEngine
from repro.core.variants import (
    ENGINE_VARIANTS,
    FIGURE3_VARIANTS,
    Variant,
    config_for,
    engine_for,
)
from repro.core.writer import parse_result_line
from repro.dns.validation import is_valid_domain
from repro.util.units import format_bytes
from repro.workloads.isp import large_isp, small_isp

PRESETS = {"large": large_isp, "small": small_isp}


def _add_simulate(subparsers) -> None:
    p = subparsers.add_parser("simulate", help="run a preset deployment")
    p.add_argument("--preset", choices=sorted(PRESETS), default="large")
    p.add_argument("--hours", type=float, default=4.0, help="simulated hours")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--variant", choices=[v.value for v in Variant], default="main")
    p.add_argument("--output", help="write correlation TSV to this file")
    p.add_argument("--dashboard", action="store_true",
                   help="render a sparkline dashboard of the run")
    p.add_argument("--metrics", action="store_true",
                   help="print Prometheus-style metrics for the run")
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args) -> int:
    workload = PRESETS[args.preset](seed=args.seed, duration=args.hours * 3600.0)
    variant = Variant(args.variant)
    config = config_for(variant)
    sink = open(args.output, "w", encoding="utf-8") if args.output else None
    try:
        engine = SimulationEngine(
            config,
            cost_params=workload.cost_params,
            worker_count=workload.worker_count,
            sink=sink,
            variant_name=variant.value,
        )
        report = engine.run(workload.dns_records(), workload.flow_records())
    finally:
        if sink is not None:
            sink.close()
    print(f"preset={args.preset} variant={variant.value} "
          f"simulated={args.hours:.1f}h seed={args.seed}")
    print(f"  DNS records     : {report.dns_records:,}")
    print(f"  flow records    : {report.flow_records:,}")
    print(f"  correlation rate: {report.correlation_rate:.1%}")
    print(f"  stream loss     : {report.overall_loss_rate:.3%}")
    print(f"  modelled CPU    : {report.mean_cpu_percent:.0f} %")
    print(f"  modelled memory : {report.mean_memory_gb:.1f} GiB")
    if args.output:
        print(f"  output written  : {args.output}")
    if args.dashboard:
        from repro.analysis.figures import render_report_summary

        print()
        print(render_report_summary(
            report, title=f"{args.preset} ISP / {variant.value}"
        ))
    if args.metrics:
        from repro.core.monitor import render_report

        print()
        print(render_report(report), end="")
    return 0


def _add_ablation(subparsers) -> None:
    p = subparsers.add_parser("ablation", help="run the Section 4 variants")
    p.add_argument("--preset", choices=sorted(PRESETS), default="large")
    p.add_argument("--hours", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_ablation)


def cmd_ablation(args) -> int:
    print(f"{'variant':<14s} {'corr':>7s} {'CPU %':>8s} {'mem GiB':>8s} {'loss':>7s}")
    for variant in FIGURE3_VARIANTS + (Variant.EXACT_TTL,):
        workload = PRESETS[args.preset](seed=args.seed, duration=args.hours * 3600.0)
        engine = SimulationEngine(
            config_for(variant),
            cost_params=workload.cost_params,
            worker_count=workload.worker_count,
            variant_name=variant.value,
        )
        report = engine.run(workload.dns_records(), workload.flow_records())
        print(f"{variant.value:<14s} {report.correlation_rate:>6.1%} "
              f"{report.mean_cpu_percent:>8.0f} {report.mean_memory_gb:>8.1f} "
              f"{report.overall_loss_rate:>7.2%}")
    return 0


def _add_correlate(subparsers) -> None:
    p = subparsers.add_parser(
        "correlate", help="correlate your own DNS + flow files offline"
    )
    p.add_argument("--dns", required=True, help="DNS records file (CSV or JSONL)")
    p.add_argument("--flows", required=True, help="flow records file (CSV or JSONL)")
    p.add_argument("--mapping", required=True, help="field-mapping JSON config")
    p.add_argument("--output", default="-", help="output TSV ('-' = stdout)")
    p.add_argument(
        "--engine", choices=sorted(ENGINE_VARIANTS), default="simulation",
        help="engine variant: " + "; ".join(
            f"{name} = {desc}" for name, desc in sorted(ENGINE_VARIANTS.items())
        ),
    )
    p.set_defaults(func=cmd_correlate)


def _engine_config(args, command: str):
    """Interpret CLI flags via EngineConfig.from_args; (config, rc) pair.

    All per-mode flag applicability lives in
    :meth:`EngineConfig.from_args`; the CLI's job is only to print the
    ConfigError and map it to exit code 2.
    """
    from repro.util.errors import ConfigError

    try:
        return EngineConfig.from_args(args, command), 0
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return None, 2


def _open_rows(path):
    handle = open(path, "r", encoding="utf-8")
    if path.endswith((".jsonl", ".json", ".ndjson")):
        return handle, iter_jsonl(handle)
    return handle, iter_csv(handle)


def cmd_correlate(args) -> int:
    engine_config, rc = _engine_config(args, "correlate")
    if rc:
        return rc
    dns_adapter, flow_adapter = load_mapping_file(args.mapping)
    if dns_adapter is None or flow_adapter is None:
        print("mapping config must define both 'dns' and 'flow' sections",
              file=sys.stderr)
        return 2

    dns_handle, dns_rows = _open_rows(args.dns)
    flow_handle, flow_rows = _open_rows(args.flows)
    sink = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        dns_records = dns_adapter.adapt_many(dns_rows)
        flow_records = flow_adapter.adapt_many(flow_rows)
        if args.engine == "simulation":
            engine = SimulationEngine(engine_config.flowdns, sink=sink)
            report = engine.run(dns_records, flow_records)
        else:
            engine = engine_for(args.engine, config=engine_config, sink=sink)
            # dns_first gives the hard DNS-before-flows ordering offline
            # correlation expects (the async fill barrier).
            report = engine.run([dns_records], [flow_records], dns_first=True)
    finally:
        dns_handle.close()
        flow_handle.close()
        if sink is not sys.stdout:
            sink.close()
    print(
        f"correlated {report.matched_flows:,}/{report.flow_records:,} flows "
        f"({report.correlation_rate:.1%} of bytes); "
        f"dns malformed={dns_adapter.stats.malformed} "
        f"skipped-rtype={dns_adapter.stats.skipped_rtype} "
        f"flow malformed={flow_adapter.stats.malformed}",
        file=sys.stderr,
    )
    return 0


def _add_live_options(p, default_duration: float) -> None:
    """The socket-session options `serve` and live `capture` share.

    Every flag keeps a ``None`` default: :meth:`EngineConfig.from_args`
    owns both the effective defaults and presence-based rejection (e.g.
    live flags under ``capture --scenario``).
    """
    p.add_argument("--host", default=None,
                   help=f"bind address (default: {DEFAULT_LIVE_HOST})")
    p.add_argument("--flow-port", type=int, default=None,
                   help="UDP port for NetFlow/IPFIX exports "
                        f"(default: {DEFAULT_FLOW_PORT}; 0 = ephemeral)")
    p.add_argument("--dns-port", type=int, default=None,
                   help="TCP port for length-framed DNS messages "
                        f"(default: {DEFAULT_DNS_PORT}; 0 = ephemeral)")
    p.add_argument("--duration", type=float, default=None,
                   help="seconds to serve before draining "
                        f"(default: {default_duration:g}; 0 = until Ctrl-C)")


def _add_serve(subparsers) -> None:
    p = subparsers.add_parser(
        "serve",
        help="run the live asyncio engine over real sockets "
             "(NetFlow/IPFIX via UDP, DNS via TCP)",
    )
    _add_live_options(p, default_duration=0.0)
    p.add_argument("--ingest-workers", type=int, default=None,
                   help="SO_REUSEPORT socket-sharding worker processes for "
                        "UDP flow ingest (default: 1 = single in-loop "
                        "socket; >1 runs one receive+decode process per "
                        "worker)")
    p.add_argument("--output", default=None,
                   help="write correlation TSV to this file (default: discard)")
    p.add_argument("--capture", default=None,
                   help="tee every received wire unit into this capture file "
                        "(replayable with `flowdns replay`)")
    p.add_argument("--snapshot", default=None, metavar="PATH",
                   help="periodically write a crash-safe storage snapshot to "
                        "PATH (atomic rename) and restore from it on start; "
                        "a corrupt or mismatched snapshot warns and the "
                        "service starts empty")
    p.add_argument("--snapshot-interval", type=float, default=None,
                   help="seconds between periodic snapshots (default: 60; "
                        "requires --snapshot)")
    p.add_argument("--stats-interval", type=float, default=None,
                   help="print a live stats line to stderr every N seconds "
                        "(default: 0 = off)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve live Prometheus-style metrics over HTTP on "
                        "this port (0 = ephemeral; default: disabled)")
    p.add_argument("--max-entries", type=int, default=None,
                   help="bound each storage tier (3 per bank, 2 banks) to "
                        "this many entries, evicting oldest-first at "
                        "overflow (default: 0 = unbounded)")
    p.set_defaults(func=cmd_serve)


class _BindFailure(Exception):
    """A live session's listeners could not bind their sockets."""


class _LazyTextFile:
    """A write-on-first-use text sink: the path is not opened (and an
    existing file not truncated) until something is actually written, so
    a live session that dies at bind time leaves prior contents intact.
    The async engine writes its TSV header only after the listeners
    bind, which is what makes this deferral effective."""

    def __init__(self, path: str):
        self._path = path
        self._file = None

    def write(self, text: str) -> int:
        if self._file is None:
            self._file = open(self._path, "w", encoding="utf-8")
        return self._file.write(text)

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


def _run_live_session(engine_config, sink, capture):
    """Bind the live listeners, serve until stop/duration, return the report.

    The one live-session implementation behind ``flowdns serve`` (sink =
    correlation TSV, capture optional) and ``flowdns capture`` (sink
    discarded, capture required). ``engine_config.ingest_workers > 1``
    swaps the in-loop UDP socket for SO_REUSEPORT socket sharding —
    N worker processes each running their own receive + decode stack.
    Raises :class:`_BindFailure` when a listener's port is taken.
    """
    import asyncio
    import signal

    from repro.core.async_engine import AsyncEngine, TcpDnsIngest, UdpFlowIngest

    dns_ingest = TcpDnsIngest(
        host=engine_config.host, port=engine_config.dns_port, capture=capture
    )
    if engine_config.ingest_workers > 1:
        from repro.core.ingest import ReuseportUdpIngest

        flow_ingest = ReuseportUdpIngest(
            host=engine_config.host,
            port=engine_config.flow_port,
            workers=engine_config.ingest_workers,
            recv_buffer_bytes=engine_config.recv_buffer_bytes,
        )
    else:
        flow_ingest = UdpFlowIngest(
            host=engine_config.host,
            port=engine_config.flow_port,
            capture=capture,
            recv_buffer_bytes=engine_config.recv_buffer_bytes,
        )
    engine = AsyncEngine(engine_config, sink=sink)
    duration = engine_config.duration

    async def serve() -> "object":
        loop = asyncio.get_running_loop()
        run = loop.create_task(engine.run_async([dns_ingest], [flow_ingest]))
        # Let the listeners bind before announcing the addresses; if the
        # engine task dies first (port already in use), surface that as
        # a startup failure instead of polling forever. Only this phase
        # maps to "failed to bind" — a runtime error after the sockets
        # are up propagates as itself.
        while dns_ingest.address is None or flow_ingest.address is None:
            if run.done():
                try:
                    return await run
                except OSError as exc:
                    raise _BindFailure(exc) from exc
            await asyncio.sleep(0.01)
        print(f"NetFlow/IPFIX (UDP): {flow_ingest.address[0]}:{flow_ingest.address[1]}",
              file=sys.stderr)
        print(f"DNS over TCP       : {dns_ingest.address[0]}:{dns_ingest.address[1]}",
              file=sys.stderr)
        if engine_config.metrics_port is not None:
            # The endpoint starts right after the listeners bind; wait it
            # out the same way so the printed address is real.
            while engine.metrics_address is None:
                if run.done():
                    try:
                        return await run
                    except OSError as exc:
                        raise _BindFailure(exc) from exc
                await asyncio.sleep(0.01)
            print(f"metrics (HTTP)     : "
                  f"{engine.metrics_address[0]}:{engine.metrics_address[1]}",
                  file=sys.stderr)
        if engine_config.snapshot_path:
            print(f"snapshots          : {engine_config.snapshot_path} "
                  f"every {engine_config.snapshot_interval:g}s",
                  file=sys.stderr)
        try:
            loop.add_signal_handler(signal.SIGINT, engine.request_stop)
            loop.add_signal_handler(signal.SIGTERM, engine.request_stop)
        except NotImplementedError:  # pragma: no cover - non-Unix loop
            pass
        if duration > 0:
            loop.call_later(duration, engine.request_stop)
            print(f"serving for {duration:.0f}s ...", file=sys.stderr)
        else:
            print("serving until Ctrl-C ...", file=sys.stderr)
        return await run

    return asyncio.run(serve())


def _print_live_summary(report) -> None:
    print(f"dns records ingested : {report.dns_records:,}", file=sys.stderr)
    print(f"flows correlated     : {report.matched_flows:,}/{report.flow_records:,} "
          f"({report.correlation_rate:.1%} of bytes)", file=sys.stderr)
    if report.restored_entries:
        print(f"restored from snap   : {report.restored_entries:,} entries",
              file=sys.stderr)
    if report.snapshots_written:
        print(f"snapshots written    : {report.snapshots_written:,}",
              file=sys.stderr)
    if report.evictions:
        print(f"entries evicted      : {report.evictions:,} (memory bound)",
              file=sys.stderr)
    if report.worker_restarts:
        print(f"workers respawned    : {report.worker_restarts:,}",
              file=sys.stderr)
    for name, stats in report.ingest.items():
        rcvbuf = (
            f" rcvbuf={format_bytes(stats.recv_buffer_bytes)}"
            if stats.recv_buffer_bytes
            else ""
        )
        print(f"  {name}: received={stats.received:,} dropped={stats.dropped:,} "
              f"malformed={stats.malformed:,}{rcvbuf}", file=sys.stderr)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _run_live_session_cli(engine_config, sink, capture) -> int:
    """The shared serve/capture session lifecycle: run, summarize, and
    apply the bind-failure contract (exit 2, capture path untouched,
    clean zero-traffic sessions still leave a valid empty capture)."""
    try:
        report = _run_live_session(engine_config, sink, capture)
        if capture is not None:
            capture.ensure_open()
    except _BindFailure as exc:
        print(f"failed to bind listeners: {exc}", file=sys.stderr)
        return 2
    finally:
        if capture is not None:
            capture.close()
        if sink is not None:
            sink.close()
    _print_live_summary(report)
    return 0


def cmd_serve(args) -> int:
    from repro.replay.capture import CaptureWriter

    engine_config, rc = _engine_config(args, "serve")
    if rc:
        return rc
    sink = _LazyTextFile(args.output) if args.output else None
    capture = CaptureWriter(args.capture) if args.capture else None
    rc = _run_live_session_cli(engine_config, sink, capture)
    if rc:
        return rc
    if args.output:
        print(f"output written       : {args.output}", file=sys.stderr)
    if args.capture:
        print(f"capture written      : {args.capture} "
              f"({capture.frames_written:,} frames)", file=sys.stderr)
    return 0


def _add_capture(subparsers) -> None:
    from repro.replay.scenarios import GOLDEN_SEED, SCENARIOS

    p = subparsers.add_parser(
        "capture",
        help="produce a capture file: record live sockets for a bounded "
             "duration, or synthesize a scenario",
    )
    p.add_argument("output", nargs="?", default=None,
                   help="capture file to write")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                   help="synthesize this scenario instead of recording live "
                        "sockets")
    p.add_argument("--list-scenarios", action="store_true",
                   help="list the scenario library and exit")
    p.add_argument("--seed", type=int, default=None,
                   help=f"scenario seed (default: {GOLDEN_SEED}, the golden "
                        "corpus seed)")
    _add_live_options(p, default_duration=60.0)
    p.set_defaults(func=cmd_capture)


def cmd_capture(args) -> int:
    from repro.replay.capture import CaptureWriter
    from repro.replay.scenarios import GOLDEN_SEED, SCENARIOS, write_scenario

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()
            print(f"{name:<22s} {doc[0] if doc else ''}".rstrip())
        return 0
    if args.output is None:
        print("capture: an output path is required (or --list-scenarios)",
              file=sys.stderr)
        return 2
    # The two modes take disjoint options; EngineConfig.from_args rejects
    # any explicitly-passed flag the selected mode would ignore.
    engine_config, rc = _engine_config(args, "capture")
    if rc:
        return rc
    if args.scenario is not None:
        seed = args.seed if args.seed is not None else GOLDEN_SEED
        count = write_scenario(args.scenario, args.output, seed=seed)
        print(f"wrote {args.output} ({count} frames, "
              f"scenario {args.scenario!r}, seed {seed})", file=sys.stderr)
        return 0
    capture = CaptureWriter(args.output)
    rc = _run_live_session_cli(engine_config, sink=None, capture=capture)
    if rc:
        return rc
    print(f"capture written      : {args.output} "
          f"({capture.frames_written:,} frames, "
          f"{capture.bytes_written:,} bytes)", file=sys.stderr)
    return 0


def _add_replay(subparsers) -> None:
    from repro.replay.faults import FAULT_PROFILES

    p = subparsers.add_parser(
        "replay",
        help="feed a capture file through the async engine",
    )
    p.add_argument("capture", nargs="?", default=None,
                   help="capture file to replay")
    p.add_argument("--engine", choices=("async",), default="async",
                   help="engine to replay through (async, the only one "
                        "that consumes wire bytes)")
    p.add_argument("--realtime", action="store_true",
                   help="wait out the recorded inter-arrival gaps instead "
                        "of replaying at max speed; bursts that overflow the "
                        "ingress buffers are dropped and counted")
    p.add_argument("--speed", type=float, default=None,
                   help="realtime pacing divisor (default 1.0; 2.0 = twice "
                        "as fast; requires --realtime)")
    p.add_argument("--output", default="-",
                   help="output TSV ('-' = stdout)")
    p.add_argument("--exact-ttl", action="store_true",
                   help="run the Appendix A.8 exact-TTL variant")
    p.add_argument("--max-entries", type=int, default=None,
                   help="bound each storage tier (3 per bank, 2 banks) to "
                        "this many entries, evicting oldest-first at "
                        "overflow (default: 0 = unbounded)")
    p.add_argument("--fault-profile", choices=sorted(FAULT_PROFILES),
                   default=None,
                   help="perturb the capture with this named fault profile "
                        "before it reaches the engine")
    p.add_argument("--fault", action="append", default=None, metavar="NAME=VALUE",
                   help="set one fault rate on both lanes (e.g. drop=0.05, "
                        "reorder=0.1, clock_skew=30); repeatable; overlays "
                        "--fault-profile")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="seed for the deterministic fault RNG (default: 0; "
                        "requires --fault-profile or --fault)")
    p.add_argument("--list-fault-profiles", action="store_true",
                   help="list the named fault profiles and exit")
    p.set_defaults(func=cmd_replay)


def cmd_replay(args) -> int:
    from repro.replay.capture import probe_capture
    from repro.replay.faults import FAULT_PROFILES
    from repro.replay.runner import replay_capture
    from repro.util.errors import ConfigError, ParseError

    if args.list_fault_profiles:
        for name in sorted(FAULT_PROFILES):
            print(f"{name:<18s} {FAULT_PROFILES[name].description}")
        return 0
    # Mode flag mismatches (--speed without --realtime, --fault-seed
    # without a fault flag) are rejected here, before any sink opens.
    engine_config, rc = _engine_config(args, "replay")
    if rc:
        return rc
    if args.capture is None:
        print("replay: a capture path is required (or --list-fault-profiles)",
              file=sys.stderr)
        return 2
    try:
        # Validate before the output sink opens: a bad capture path must
        # not truncate an existing results file on its way to exit 2.
        probe_capture(args.capture)
    except (OSError, ParseError) as exc:
        print(f"cannot replay {args.capture}: {exc}", file=sys.stderr)
        return 2
    sink = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        # Pacing and faults ride in engine_config.
        report = replay_capture(args.capture, config=engine_config, sink=sink)
    except (OSError, ParseError, ConfigError) as exc:
        print(f"cannot replay {args.capture}: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not sys.stdout:
            sink.close()
    if engine_config.fault_profile or engine_config.fault_rates:
        profile = engine_config.fault_profile or "custom"
        seed = engine_config.fault_seed if engine_config.fault_seed is not None else 0
        print(f"faults injected: profile={profile} seed={seed} "
              f"(re-run with the same seed for an identical stream)",
              file=sys.stderr)
    print(f"replayed {args.capture} through engine={args.engine}: "
          f"{report.matched_flows:,}/{report.flow_records:,} flows correlated "
          f"({report.correlation_rate:.1%} of bytes), "
          f"{report.dns_records:,} dns records", file=sys.stderr)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _add_workload_base_options(p) -> None:
    """Workload knobs `generate` and `sweep` share (None defaults:
    :meth:`GeneratorParams.from_args` owns the effective values)."""
    from repro.workloads.generator import SIZE_CDFS, TTL_PROFILES

    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: 0); with the same config, "
                        "the output capture is byte-identical per seed")
    p.add_argument("--duration", type=float, default=None,
                   help="trace seconds to synthesize (default: 60)")
    p.add_argument("--rate", type=float, default=None,
                   help="aggregate resolution events/s (mutually exclusive "
                        "with --per-client-rate, which it overrides)")
    p.add_argument("--per-client-rate", type=float, default=None,
                   help="resolution events/s per client (default: 0.02)")
    p.add_argument("--domains", type=int, default=None, dest="n_domains",
                   help="benign domain-universe size (default: 400)")
    p.add_argument("--flow-size-cdf", choices=sorted(SIZE_CDFS), default=None,
                   help="flow-size distribution (default: websearch)")
    p.add_argument("--ttl-profile", choices=sorted(TTL_PROFILES), default=None,
                   help="TTL distribution profile (default: paper)")
    p.add_argument("--cdn-count", type=int, default=None,
                   help="shared-pool CDN providers on top of the dedicated "
                        "streaming CDNs (default: 3)")
    p.add_argument("--aaaa-fraction", type=float, default=None,
                   help="fraction of resolutions answered with AAAA "
                        "(default: 0.1)")
    p.add_argument("--public-resolver-fraction", type=float, default=None,
                   help="fraction of resolutions FlowDNS never sees (flows "
                        "still happen; match rate drops; default: 0)")
    p.add_argument("--diurnal-amplitude", type=float, default=None,
                   help="diurnal rate modulation amplitude in [0,1) "
                        "(default: 0 = flat Poisson)")


def _list_workload_tables(args) -> bool:
    """Handle --list-size-cdfs / --list-ttl-profiles; True if one ran."""
    from repro.workloads.generator import SIZE_CDFS, TTL_PROFILES, SizeCdf
    from repro.workloads.ttl_model import ADDRESS_TTL_WEIGHTS

    if getattr(args, "list_size_cdfs", False):
        for name in sorted(SIZE_CDFS):
            cdf = SizeCdf.named(name)
            print(f"{name:<12s} mean={format_bytes(round(cdf.mean())):>10s}  "
                  f"max={format_bytes(cdf.sizes[-1])}")
        return True
    if getattr(args, "list_ttl_profiles", False):
        for name in sorted(TTL_PROFILES):
            weights = TTL_PROFILES[name]
            address = weights[0] if weights is not None else ADDRESS_TTL_WEIGHTS
            ttls = ", ".join(str(t) for t, _ in address)
            print(f"{name:<8s} address TTLs: {ttls}")
        return True
    return False


def _add_generate(subparsers) -> None:
    p = subparsers.add_parser(
        "generate",
        help="synthesize an internet-scale workload capture (streamed, "
             "bounded memory)",
    )
    p.add_argument("output", nargs="?", default=None,
                   help="capture file to write")
    p.add_argument("--clients", type=int, default=None,
                   help="client population size (default: 5000; max ~4.2M "
                        "— the CGNAT /10)")
    p.add_argument("--zipf-alpha", type=float, default=None,
                   help="domain-popularity Zipf exponent (default: 0.9)")
    p.add_argument("--chain-depth", type=int, default=None,
                   help="max CNAME-chain depth; the paper's Figure 6 "
                        "distribution truncated + renormalised (default: 4)")
    _add_workload_base_options(p)
    p.add_argument("--list-size-cdfs", action="store_true",
                   help="list the named flow-size CDFs and exit")
    p.add_argument("--list-ttl-profiles", action="store_true",
                   help="list the named TTL profiles and exit")
    p.set_defaults(func=cmd_generate)


def cmd_generate(args) -> int:
    from repro.util.errors import ConfigError
    from repro.workloads.generator import GeneratorParams, generate_capture

    if _list_workload_tables(args):
        return 0
    if args.output is None:
        print("generate: an output path is required (or --list-size-cdfs / "
              "--list-ttl-profiles)", file=sys.stderr)
        return 2
    try:
        params = GeneratorParams.from_args(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    report = generate_capture(params, args.output)
    print(f"wrote {args.output}: {report.flows:,} flows, "
          f"{report.dns_frames:,} dns frames, "
          f"{report.cache_misses:,} encoded answers "
          f"({format_bytes(report.wire_bytes)}) in {report.elapsed:.1f}s "
          f"({report.flows_per_sec:,.0f} flows/s, "
          f"{report.answers_per_sec:,.0f} answers/s, "
          f"peak {report.peak_pending:,} flows buffered)", file=sys.stderr)
    if report.invisible_resolutions:
        print(f"  {report.invisible_resolutions:,} resolutions via public "
              "resolvers (flows without DNS coverage)", file=sys.stderr)
    return 0


def _add_sweep(subparsers) -> None:
    from repro.replay.faults import FAULT_PROFILES

    p = subparsers.add_parser(
        "sweep",
        help="generate a workload grid and replay it through fault "
             "profiles",
    )
    p.add_argument("out_dir", nargs="?", default=None,
                   help="directory for the grid's capture files and "
                        "its sweep-rows.json")
    p.add_argument("--clients", type=int, nargs="+", default=None,
                   dest="clients_axis", metavar="N",
                   help="client-count axis (default: 2000)")
    p.add_argument("--zipf-alpha", type=float, nargs="+", default=None,
                   dest="zipf_axis", metavar="A",
                   help="Zipf-exponent axis (default: 0.9)")
    p.add_argument("--chain-depth", type=int, nargs="+", default=None,
                   dest="depth_axis", metavar="D",
                   help="CNAME-chain-depth axis (default: 4)")
    p.add_argument("--fault-profile", nargs="+", default=None,
                   dest="fault_profiles", metavar="PROFILE",
                   choices=sorted(FAULT_PROFILES) + ["none"],
                   help="fault-profile legs; 'none' = fault-free baseline "
                        "(default: none)")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="seed for the fault legs' deterministic RNG")
    _add_workload_base_options(p)
    p.add_argument("--keep-captures", action="store_true",
                   help="keep the generated capture files after their legs "
                        "finish")
    p.add_argument("--list-fault-profiles", action="store_true",
                   help="list the named fault profiles and exit")
    p.set_defaults(func=cmd_sweep)


def cmd_sweep(args) -> int:
    from repro.replay.faults import FAULT_PROFILES
    from repro.util.errors import ConfigError
    from repro.workloads.sweep import SweepSpec, run_sweep

    if args.list_fault_profiles:
        for name in sorted(FAULT_PROFILES):
            print(f"{name:<18s} {FAULT_PROFILES[name].description}")
        return 0
    if args.out_dir is None:
        print("sweep: an output directory is required "
              "(or --list-fault-profiles)", file=sys.stderr)
        return 2
    try:
        spec = SweepSpec.from_args(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2

    def say(message: str) -> None:
        print(message, file=sys.stderr)

    rows = run_sweep(
        spec,
        args.out_dir,
        log=say,
        keep_captures=bool(args.keep_captures),
    )
    print(f"{'clients':>8s} {'alpha':>6s} {'depth':>5s} "
          f"{'faults':<12s} {'flows':>9s} {'match':>6s} {'loss':>6s}")
    for row in rows:
        print(f"{row['clients']:>8d} {row['zipf_alpha']:>6.2f} "
              f"{row['chain_depth']:>5d} "
              f"{row['fault_profile']:<12s} {row['generated_flows']:>9,d} "
              f"{row['match_rate']:>6.1%} {row['loss_rate']:>6.1%}")
    return 0


def _add_analyze(subparsers) -> None:
    p = subparsers.add_parser("analyze", help="analyze a FlowDNS output TSV")
    p.add_argument("output_file")
    p.add_argument("--top", type=int, default=10, help="top services to list")
    p.set_defaults(func=cmd_analyze)


def cmd_analyze(args) -> int:
    bytes_by_service = defaultdict(int)
    total_bytes = 0
    correlated_bytes = 0
    rows = 0
    invalid = set()
    with open(args.output_file, "r", encoding="utf-8") as handle:
        for line in handle:
            parsed = parse_result_line(line)
            if parsed is None:
                continue
            rows += 1
            total_bytes += parsed["bytes"]
            if parsed["service"]:
                correlated_bytes += parsed["bytes"]
                bytes_by_service[parsed["service"]] += parsed["bytes"]
                if not is_valid_domain(parsed["service"]):
                    invalid.add(parsed["service"])
    if rows == 0:
        print("no data rows found", file=sys.stderr)
        return 1
    rate = correlated_bytes / total_bytes if total_bytes else 0.0
    print(f"rows={rows:,}  volume={format_bytes(total_bytes)}  "
          f"correlation rate={rate:.1%}")
    print(f"distinct services={len(bytes_by_service):,}  "
          f"RFC1035-violating={len(invalid)}")
    print(f"\ntop {args.top} services:")
    top = sorted(bytes_by_service.items(), key=lambda kv: kv[1], reverse=True)
    for name, nbytes in top[: args.top]:
        marker = "  [invalid]" if name in invalid else ""
        print(f"  {name:<44s} {format_bytes(nbytes):>12s}{marker}")
    return 0


def _add_figures(subparsers) -> None:
    p = subparsers.add_parser(
        "figures", help="regenerate figure data files (TSV) from simulations"
    )
    p.add_argument("--out-dir", default="figures", help="output directory")
    p.add_argument("--hours", type=float, default=6.0,
                   help="simulated hours per run (Fig. 2 uses 4x this)")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_figures)


def cmd_figures(args) -> int:
    import pathlib

    from repro.analysis.figures import (
        figure2_rows,
        figure3_rows,
        figure7_rows,
        write_tsv,
    )

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run(variant):
        workload = large_isp(seed=args.seed, duration=args.hours * 3600.0)
        engine = SimulationEngine(
            config_for(variant),
            cost_params=workload.cost_params,
            worker_count=workload.worker_count,
            variant_name=variant.value,
        )
        return engine.run(workload.dns_records(), workload.flow_records())

    # Figure 2: a longer Main run.
    workload = large_isp(seed=args.seed, duration=4 * args.hours * 3600.0,
                         resolution_rate=0.5)
    engine = SimulationEngine(config_for(Variant.MAIN),
                              cost_params=workload.cost_params,
                              worker_count=workload.worker_count)
    fig2_report = engine.run(workload.dns_records(), workload.flow_records())
    with open(out_dir / "fig2_week_usage.tsv", "w", encoding="utf-8") as sink:
        write_tsv(sink, ("t_start", "cpu_percent", "memory_gb", "traffic_bytes"),
                  figure2_rows(fig2_report))
    print(f"wrote {out_dir / 'fig2_week_usage.tsv'}")

    reports = {v.value: run(v) for v in FIGURE3_VARIANTS}
    with open(out_dir / "fig3_variant_usage.tsv", "w", encoding="utf-8") as sink:
        write_tsv(sink, ("variant", "t_start", "cpu_percent", "memory_gb"),
                  figure3_rows(reports))
    print(f"wrote {out_dir / 'fig3_variant_usage.tsv'}")
    with open(out_dir / "fig7_variant_correlation.tsv", "w", encoding="utf-8") as sink:
        write_tsv(sink, ("variant", "t_start", "correlation_rate"),
                  figure7_rows(reports))
    print(f"wrote {out_dir / 'fig7_variant_correlation.tsv'}")
    return 0


def _add_mapping_template(subparsers) -> None:
    p = subparsers.add_parser(
        "mapping-template", help="print a field-mapping config template"
    )
    p.set_defaults(func=cmd_mapping_template)


def cmd_mapping_template(_args) -> int:
    template = {
        "dns": {
            "ts": {"field": "timestamp", "unit": "s"},
            "query": {"field": "qname"},
            "rtype": {"field": "type"},
            "ttl": {"field": "ttl"},
            "answer": {"field": "rdata"},
        },
        "flow": {
            "ts": {"field": "end_time", "unit": "ms"},
            "src_ip": {"field": "src_addr"},
            "dst_ip": {"field": "dst_addr"},
            "bytes": {"field": "bytes", "default": 0},
            "packets": {"field": "packets", "default": 1},
            "src_port": {"field": "src_port", "default": 0},
            "dst_port": {"field": "dst_port", "default": 0},
            "protocol": {"field": "proto", "default": 6},
        },
    }
    print(json.dumps(template, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowdns", description="FlowDNS reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_simulate(subparsers)
    _add_ablation(subparsers)
    _add_correlate(subparsers)
    _add_serve(subparsers)
    _add_capture(subparsers)
    _add_replay(subparsers)
    _add_generate(subparsers)
    _add_sweep(subparsers)
    _add_analyze(subparsers)
    _add_figures(subparsers)
    _add_mapping_template(subparsers)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
