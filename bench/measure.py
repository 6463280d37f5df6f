"""One run of one workload: set-up, timed repetitions, verification.

``measure`` is the untraced run behind the end-to-end metrics; ``trace``
is the separate traced run behind the per-layer ones. Both generate the
capture from the seed, run the inline reference pass, and check every
child's rows and summary against it.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.config import DEFAULT_RECV_BUFFER_BYTES
from repro.netflow.collector import FlowCollector
from repro.netflow.udp import set_recv_buffer
from repro.replay.capture import LANE_DNS, read_capture
from repro.workloads.generator import GeneratorParams, generate_capture

import children
import loadgen
import spec

INLINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inline.py")

#: Fewest child passes in a run, however long they take.
MIN_REPS = 2
#: ``match_share`` may differ from the inline pass's by this much.
MATCH_TOLERANCE = 0.002
POLL_INTERVAL = 1.0 / spec.MAX_POLL_HZ
#: A closed loop whose counter has not moved for this long has lost something.
STALL_S = 10.0
#: Phase B is over once the flow counter has been still this long.
OVERLOAD_QUIET_S = 0.5


class SetUp(NamedTuple):
    capture_path: str
    #: The generator's own account of what it emitted.
    report: object
    #: Live drivers only: DNS payloads, flow datagrams, and the running
    #: total of flows the datagrams carry.
    dns_payloads: List[bytes]
    datagrams: List[bytes]
    cumulative_flows: List[int]


def set_up(workload: spec.Workload, seed: int, smoke: bool, out_dir: str) -> Tuple[SetUp, float]:
    """Generate the capture (and split its lanes for a live driver);
    returns the set-up and how long it took."""
    started = time.perf_counter()
    path = os.path.join(out_dir, f"{workload.capture}.fdc")
    params = GeneratorParams(**spec.capture_params(workload.capture, seed, smoke))
    report = generate_capture(params, path)
    dns: List[bytes] = []
    datagrams: List[bytes] = []
    cumulative: List[int] = []
    if workload.driver != "replay":
        collector = FlowCollector()
        flows = 0
        for frame in read_capture(path):
            if frame.lane == LANE_DNS:
                dns.append(frame.payload)
            else:
                datagrams.append(frame.payload)
                flows += len(collector.ingest_columns(frame.payload))
                cumulative.append(flows)
    return SetUp(path, report, dns, datagrams, cumulative), time.perf_counter() - started


def inline_pass(workload: spec.Workload, setup: SetUp, out_dir: str,
                trace_path: Optional[str] = None) -> Dict[str, float]:
    """Run ``inline.py`` on the capture in a process of its own."""
    args = [sys.executable, INLINE, setup.capture_path,
            "--rows", os.path.join(out_dir, "inline.tsv"), "--workload", workload.name]
    if trace_path is not None:
        args += ["--trace", trace_path]
    if workload.driver != "replay":
        args.append("--arrival-stamped")
    done = subprocess.run(
        args, env=children.child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, check=True, timeout=children.CHILD_TIMEOUT_S,
    )
    return json.loads(done.stdout)


@dataclass
class Rep:
    """One timed repetition: one child, spawn to exit."""

    #: Records offered, and of those the ones that failed.
    attempted: int
    failed: int = 0
    #: The timed window and the records that went through inside it.
    wall_s: float = 0.0
    records: int = 0
    #: Every record the child handled (the CPU metric's denominator).
    processed: int = 0
    rows: int = 0
    matched: int = 0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    #: Live drivers: spawn, bind and prefill, which count as set-up.
    prep_s: float = 0.0
    violations: List[str] = field(default_factory=list)
    #: Sender- and ingest-side counts (traced run).
    ingest: Dict[str, float] = field(default_factory=dict)


def _verify(rep: Rep, exit_: children.Exit, summary: Optional[Dict[str, int]],
            rows_path: str, expected_rows: int, reference: Dict[str, float]) -> None:
    """Check a child's exit, rows and summary; charge failures to ``rep``."""
    broken = []
    if exit_.returncode != 0:
        broken.append(f"child exited with {exit_.returncode}")
    try:
        rep.rows, rep.matched = children.check_rows(rows_path)
    except (OSError, ValueError) as exc:
        broken.append(f"unusable rows: {exc}")
    if summary is None:
        broken.append("no summary on the child's stderr")
    if broken:
        rep.violations += broken
        rep.failed = rep.attempted
        return
    rep.violations += children.warnings_in(exit_.stderr)
    if (summary["matched"], summary["flows"]) != (rep.matched, rep.rows):
        rep.violations.append(
            f"summary says {summary['matched']}/{summary['flows']} matched, "
            f"the rows say {rep.matched}/{rep.rows}"
        )
    if summary["dns_records"] != reference["fillup.records_stored"]:
        rep.violations.append(
            f"{summary['dns_records']} dns records stored, the inline pass stored "
            f"{reference['fillup.records_stored']}"
        )
    if rep.rows != expected_rows:
        rep.violations.append(f"{rep.rows} rows written for {expected_rows} flows")
        rep.failed += max(0, expected_rows - rep.rows)
    share = rep.matched / rep.rows if rep.rows else 0.0
    wanted = reference["matched"] / reference["writer.rows"]
    if abs(share - wanted) > MATCH_TOLERANCE:
        rep.violations.append(f"match_share {share:.4f}, the inline pass has {wanted:.4f}")


def replay_rep(workload: spec.Workload, setup: SetUp, reference: Dict[str, float],
               out_dir: str) -> Rep:
    """``flowdns replay`` on the capture; timed from spawn to exit."""
    report = setup.report
    rows_path = os.path.join(out_dir, "rows.tsv")
    exit_ = children.run_replay(
        setup.capture_path, rows_path, workload.engine, os.path.join(out_dir, "child.err")
    )
    rep = Rep(attempted=report.dns_frames + report.flows, wall_s=exit_.wall_s,
              cpu_s=exit_.cpu_s, rss_mb=exit_.rss_mb)
    _verify(rep, exit_, children.replay_summary(exit_.stderr), rows_path,
            report.flows, reference)
    rep.records = rep.processed = report.dns_frames + rep.rows
    return rep


def achieved_rcvbuf() -> int:
    """The ``SO_RCVBUF`` the child's UDP socket gets: the same request on
    a socket of our own, clamped by the same kernel."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        return set_recv_buffer(sock, DEFAULT_RECV_BUFFER_BYTES)


def live_rep(workload: spec.Workload, setup: SetUp, reference: Dict[str, float],
             out_dir: str, overload: bool = False) -> Rep:
    """One ``flowdns serve`` session: the DNS lane over TCP, then the flow
    lane over UDP, both closed loop.

    ``live_dns_tcp`` times the DNS lane (the flows afterwards only check
    what was stored); ``live_flow_udp`` times the flow lane (the DNS lane
    before it is the prefill, part of set-up). ``overload`` adds phase B.
    A child that never comes up, or stops answering under load, fails every
    record of the pass; it does not raise.
    """
    report = setup.report
    rows_path = os.path.join(out_dir, "rows.tsv")
    rep = Rep(attempted=len(setup.dns_payloads) + report.flows)
    rcvbuf = achieved_rcvbuf()
    window = loadgen.send_window(rcvbuf, setup.datagrams)
    try:
        serve = children.Serve(rows_path, os.path.join(out_dir, "child.err"))
    except children.ChildFailed as exc:
        rep.violations.append(str(exc))
        rep.failed = rep.attempted
        return rep
    overload_flows = 0
    lost = None
    try:
        def read(name: str) -> float:
            return loadgen.scrape(serve.metrics_port).get(name, 0.0)

        dns_first, dns_sent = loadgen.send_dns_tcp(
            ("127.0.0.1", serve.dns_port), setup.dns_payloads
        )
        _, dns_done = loadgen.wait_for_count(
            lambda: read(loadgen.DNS_RECORDS), reference["fillup.records_stored"],
            STALL_S, POLL_INTERVAL,
        )
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.connect(("127.0.0.1", serve.flow_port))
            flows = loadgen.send_windowed(
                sock.send, setup.datagrams, setup.cumulative_flows, window,
                lambda: read(loadgen.FLOW_RECORDS), STALL_S, POLL_INTERVAL,
            )
            sent = len(setup.datagrams)
            if overload:
                head = setup.datagrams[:spec.OVERLOAD_MAX_DATAGRAMS]
                offered = setup.cumulative_flows[len(head) - 1]
                due, sent_at = loadgen.open_loop(
                    sock.send, head, spec.OVERLOAD_DATAGRAMS_PER_S
                )
                count, done = loadgen.wait_for_count(
                    lambda: read(loadgen.FLOW_RECORDS), flows["flows"] + offered,
                    OVERLOAD_QUIET_S, POLL_INTERVAL,
                )
                overload_flows = int(count - flows["flows"])
                sent += len(head)
                rep.ingest.update({
                    "overload_records_per_s": overload_flows / (done - due[0]),
                    "ingest.overload_loss_share": 1.0 - overload_flows / offered,
                    "ingest.gen_late_ms_p99": loadgen.lateness_ms(due, sent_at)["p99"],
                })
    except (OSError, http.client.HTTPException) as exc:
        # Connection refused or reset, /metrics gone: the child died under load.
        lost = f"the child stopped answering mid-run: {exc!r}"
    finally:
        exit_ = serve.stop()
    rep.cpu_s, rep.rss_mb = exit_.cpu_s, exit_.rss_mb
    summary = children.serve_summary(exit_.stderr)
    _verify(rep, exit_, summary, rows_path, report.flows + overload_flows, reference)
    if lost is not None:
        rep.violations.insert(0, lost)
        rep.failed = rep.attempted
        return rep
    if workload.driver == "live_dns_tcp":
        rep.wall_s, rep.records = dns_done - dns_first, len(setup.dns_payloads)
        rep.prep_s = serve.ready_s
    else:
        rep.wall_s = flows["done_at"] - flows["first_at"]
        rep.records = int(flows["flows"])
        rep.prep_s = serve.ready_s + (dns_done - dns_first)
    rep.processed = len(setup.dns_payloads) + rep.rows
    if summary is not None:
        received = summary.get("tcp_received", 0)
        if received != len(setup.dns_payloads):
            rep.violations.append(
                f"{received} of {len(setup.dns_payloads)} DNS messages received over TCP"
            )
            rep.failed += max(0, len(setup.dns_payloads) - received)
        for key in ("tcp_dropped", "tcp_malformed", "udp_malformed"):
            if summary.get(key, 0):
                rep.violations.append(f"{key}={summary[key]} in the ingest summary")
        rep.ingest.update({
            "ingest.sent_datagrams": sent,
            "ingest.udp_received": summary.get("udp_received", 0),
            "ingest.udp_dropped": summary.get("udp_dropped", 0),
            "ingest.kernel_lost": sent - summary.get("udp_received", 0),
            "ingest.rcvbuf_bytes": rcvbuf,
            "ingest.window_stalls": flows["stalls"],
            "ingest.tcp_msgs": received,
            "ingest.send_s": (dns_sent - dns_first) + (flows["sent_at"] - flows["first_at"]),
        })
        if not overload and summary.get("udp_dropped", 0):
            rep.violations.append(f"udp_dropped={summary['udp_dropped']} in a closed loop")
    return rep


def one_rep(workload: spec.Workload, setup: SetUp, reference: Dict[str, float],
            out_dir: str, overload: bool = False) -> Rep:
    if workload.driver == "replay":
        return replay_rep(workload, setup, reference, out_dir)
    return live_rep(workload, setup, reference, out_dir, overload)


def rep_metrics(rep: Rep) -> Dict[str, float]:
    """The per-repetition end-to-end values (``setup_s`` is per run)."""
    return {
        "records_per_s": rep.records / rep.wall_s if rep.wall_s else 0.0,
        "cpu_s_per_mrec": rep.cpu_s / rep.processed * 1e6 if rep.processed else 0.0,
        "peak_rss_mb": rep.rss_mb,
        "match_share": rep.matched / rep.rows if rep.rows else 0.0,
    }


class Run(NamedTuple):
    """What one invocation measured."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Per-repetition values behind each median.
    samples: Dict[str, List[float]]
    violations: List[str]


def _clean(out_dir: str) -> None:
    """Captures and rows are tens of MB and regenerated from the seed."""
    for name in os.listdir(out_dir):
        if name.endswith((".fdc", ".tsv")):
            os.unlink(os.path.join(out_dir, name))


def _passes(one_pass, seconds: float, at_least: int) -> list:
    """``one_pass(0)``, ``one_pass(1)``, ...: ``at_least`` times, then for as
    long as another call as long as the longest so far would still end
    inside ``seconds``."""
    out = []
    started = time.perf_counter()
    longest = 0.0
    while len(out) < at_least or time.perf_counter() - started + longest <= seconds:
        began = time.perf_counter()
        out.append(one_pass(len(out)))
        longest = max(longest, time.perf_counter() - began)
    return out


def child_passes(workload: spec.Workload, setup: SetUp, reference: Dict[str, float],
                 out_dir: str, seconds: float) -> List[Rep]:
    """The run's child passes. On ``live_flow_udp`` the first one goes on
    into phase B, so the rows the last one leaves are phase A's alone."""
    overload = workload.driver == "live_flow_udp"
    return _passes(
        lambda index: one_rep(workload, setup, reference, out_dir, overload and index == 0),
        seconds, MIN_REPS,
    )


def measure(workload: spec.Workload, seed: int, seconds: float, smoke: bool,
            out_dir: str) -> Run:
    """The untraced run: every end-to-end metric, each the median over the
    child passes that fit in ``seconds`` (at least ``MIN_REPS``).

    The set-up is done twice, before the passes and again after them, and
    ``setup_s`` is the median of the two: the machine's speed a window apart.
    """
    os.makedirs(out_dir, exist_ok=True)
    setup, generated_s = set_up(workload, seed, smoke, out_dir)
    reference = inline_pass(workload, setup, out_dir)
    reps = child_passes(workload, setup, reference, out_dir, seconds)
    generated_s = statistics.median([generated_s, set_up(workload, seed, smoke, out_dir)[1]])
    _clean(out_dir)

    samples: Dict[str, List[float]] = {"prep_s": [r.prep_s for r in reps]}
    for rep in reps:
        for name, value in rep_metrics(rep).items():
            samples.setdefault(name, []).append(value)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["setup_s"] = generated_s + metrics.pop("prep_s")
    metrics["failed_share"] = failed / attempted
    metrics["delivered_share"] = 1.0 - metrics["failed_share"]
    if "overload_records_per_s" in reps[0].ingest:
        metrics["overload_records_per_s"] = reps[0].ingest["overload_records_per_s"]
    violations = [v for r in reps for v in r.violations]
    return Run(attempted, failed, metrics, samples, violations)


def rows_diff(engine_rows: str, inline_rows: str) -> Tuple[int, int]:
    """Engine rows against the inline pass's, both sorted: how many differ
    in the service, and how many agree on the service but not the chain.
    A row one side lacks counts as a service difference."""
    def load(path: str) -> List[str]:
        with open(path, encoding="utf-8") as handle:
            return sorted(line for line in handle if not line.startswith("#"))

    ours, theirs = load(engine_rows), load(inline_rows)
    service = abs(len(ours) - len(theirs))
    chain = 0
    for a, b in zip(ours, theirs):
        if a != b:
            fa, fb = a.split("\t"), b.split("\t")
            if fa[:7] != fb[:7]:
                service += 1
            else:
                chain += 1
    return service, chain


def trace(workload: spec.Workload, seed: int, seconds: float, smoke: bool,
          out_dir: str) -> Run:
    """The traced run: every per-layer metric.

    Pairs of inline passes, shims off (the baseline's wall) then shims on
    (the layers' self times), for as long as they fit in ``seconds``; then
    ``MIN_REPS`` children, the first with the ingest counters read back.
    """
    os.makedirs(out_dir, exist_ok=True)
    setup, _ = set_up(workload, seed, smoke, out_dir)
    report = setup.report
    trace_path = os.path.join(os.path.dirname(out_dir), f"trace-{workload.name}.jsonl")
    pairs = _passes(
        lambda _index: (inline_pass(workload, setup, out_dir),
                        inline_pass(workload, setup, out_dir, trace_path)),
        seconds, 1,
    )
    plain = [pair[0] for pair in pairs]
    traced = [pair[1] for pair in pairs]
    inline_rows = os.path.join(out_dir, "inline.tsv")

    def median_of(passes: List[Dict[str, float]], key: str) -> float:
        return statistics.median(p[key] for p in passes)

    layers = {m.name: 0.0 for m in spec.PER_LAYER}
    for key in traced[0]:
        if key in layers:
            layers[key] = median_of(traced, key)
    wall = median_of(plain, "wall_s")
    layers.update({
        "generator.flows_per_s": report.flows_per_sec,
        "generator.capture_mb": report.wire_bytes / 1e6,
        # Each lane reads the whole file for itself.
        "capture.mb_per_s": 2 * report.wire_bytes / 1e6 / layers["capture.read_s"],
        "dns.msgs_per_s": layers["dns.msgs"] / layers["dns.decode_s"],
        "netflow.flows_per_s": layers["netflow.flows"] / layers["netflow.decode_s"],
        "lookup.unique_ip_share": layers["storage.lookup_ip_keys"] / layers["lookup.flows"],
        "inline.wall_s": wall,
        "inline.records_per_s": plain[0]["records"] / wall,
    })

    # Child passes for the rate the gap is taken against; the first one's
    # ingest counters are the ones reported (on live_flow_udp, with phase B).
    reps = child_passes(workload, setup, plain[0], out_dir, 0.0)
    layers.update(reps[0].ingest)
    # The inline rate of what the child was timed on: both lanes for a
    # replay, the one lane a live workload feeds.
    if workload.driver == "live_dns_tcp":
        inline_rate = plain[0]["dns.msgs"] / median_of(plain, "dns_lane_s")
    elif workload.driver == "live_flow_udp":
        inline_rate = plain[0]["writer.rows"] / median_of(plain, "flow_lane_s")
    else:
        inline_rate = layers["inline.records_per_s"]
    child_rate = statistics.median(rep_metrics(r)["records_per_s"] for r in reps)
    layers["runtime.gap_ratio"] = inline_rate / child_rate if child_rate else 0.0
    if os.path.exists(os.path.join(out_dir, "rows.tsv")):
        service, chain = rows_diff(os.path.join(out_dir, "rows.tsv"), inline_rows)
        layers["runtime.rows_service_diff"] = service
        layers["runtime.rows_chain_diff"] = chain
    _clean(out_dir)
    violations = [v for r in reps for v in r.violations]
    return Run(sum(r.attempted for r in reps), sum(r.failed for r in reps), layers, {},
               violations)
