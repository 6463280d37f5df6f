"""Multi-process SO_REUSEPORT UDP ingest: parity, stats, and failure.

The contract under test:

* N reuseport workers and 1 worker produce *identical sorted output
  rows* for the same traffic (the kernel only changes which worker
  decodes a datagram, never what comes out);
* per-worker IngestStats merge into one truthful source-level view
  (received = datagrams sent, nothing dropped at rest);
* a worker dying mid-ingest surfaces as a ``report.warnings`` entry and
  the run *completes* — no hang waiting on a sentinel that will never
  arrive.

v5 datagrams are used throughout: v5 is stateless, so correctness is
independent of how the kernel's flow-hash spreads sender sockets across
workers (v9/IPFIX template state is per-worker-consistent because one
sender 4-tuple always lands on the same worker — but that is an
async-engine loopback-parity concern, already covered elsewhere).
"""

import io
import os
import signal
import socket
import threading
import time

import pytest

from repro.core.async_engine import AsyncEngine
from repro.core.config import EngineConfig
from repro.core.ingest import ReuseportUdpIngest
from repro.core.metrics import IngestStats, merge_ingest_stats
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowRecord
from repro.netflow.v5 import encode_v5
from repro.util.errors import ConfigError

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="platform has no SO_REUSEPORT",
)


def _dns_records(count=60):
    return [
        DnsRecord(float(i % 40), f"svc{i % count}.example", RRType.A, 300,
                  f"10.0.{(i % count) // 30}.{(i % count) % 30 + 1}")
        for i in range(count)
    ]


def _datagrams(count=120, flows_per_datagram=10):
    out = []
    for b in range(count):
        flows = [
            FlowRecord(ts=float((b + i) % 40),
                       src_ip=f"10.0.{((b + i) % 60) // 30}.{((b + i) % 60) % 30 + 1}",
                       dst_ip="100.64.0.1", bytes_=100 + (b + i) % 13)
            for i in range(flows_per_datagram)
        ]
        out.append(encode_v5(flows, unix_secs=1000))
    return out


def _blast(datagrams, address, senders=8):
    """Send from several source sockets so the kernel's 4-tuple hash has
    material to spread datagrams across reuseport workers."""
    socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
             for _ in range(senders)]
    try:
        for i, datagram in enumerate(datagrams):
            socks[i % senders].sendto(datagram, address)
    finally:
        for sock in socks:
            sock.close()


def _wait_for(predicate, what, timeout=15.0):
    """Poll observable state under a deadline (no fixed sleeps)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def _start_run(source):
    """``AsyncEngine.run`` over one live flow source, in a thread."""
    engine = AsyncEngine(EngineConfig())
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(report=engine.run([[]], [source]))
    )
    thread.start()
    return engine, thread, result


def _stop_run(engine, thread, result):
    """Graceful stop; the run must not hang. Returns its report."""
    engine.request_stop()
    thread.join(30.0)
    assert not thread.is_alive(), "engine run hung after request_stop"
    return result["report"]


def _run_async_live(workers, datagrams, settle=0.6):
    """One AsyncEngine run fed by a live reuseport flow source."""
    source = ReuseportUdpIngest(workers=workers, batch_rows=64,
                                poll_interval=0.02)
    sink = io.StringIO()
    engine = AsyncEngine(EngineConfig(), sink=sink)
    result = {}

    def run():
        result["report"] = engine.run([_dns_records()], [source])

    thread = threading.Thread(target=run)
    thread.start()
    try:
        address = source.wait_ready(10.0)
        deadline = time.monotonic() + 10.0
        while not engine.fillup_complete and time.monotonic() < deadline:
            time.sleep(0.01)
        _blast(datagrams, address)
        # Let the workers drain the kernel queue before asking them to
        # flush; loopback + a 4 MiB rcvbuf means nothing is lost, only
        # still in flight.
        deadline = time.monotonic() + 10.0
        while (source.ingest_stats.received < len(datagrams)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        # Stats must be observable *while the run is live* — workers ship
        # final counters only on exit, so this exercises the parent-side
        # delivered-datagram lower bound.
        assert source.ingest_stats.received == len(datagrams)
        time.sleep(settle)
        engine.request_stop()
        thread.join(30.0)
        assert not thread.is_alive(), "engine run hung after request_stop"
    finally:
        source.close()
    rows = sorted(line for line in sink.getvalue().splitlines()
                  if line and not line.startswith("#"))
    return rows, result["report"], source


class TestReuseportParity:
    def test_n_workers_match_single_worker(self):
        """Same traffic through 1 and 2 reuseport workers: identical
        sorted correlation rows and identical merged ingest totals."""
        datagrams = _datagrams()
        rows_one, report_one, source_one = _run_async_live(1, datagrams)
        rows_two, report_two, source_two = _run_async_live(2, datagrams)
        assert rows_one == rows_two
        assert len(rows_one) > 0
        for report, source in ((report_one, source_one),
                               (report_two, source_two)):
            stats = source.ingest_stats
            assert stats.received == len(datagrams)
            assert stats.accepted == len(datagrams)
            assert stats.dropped == 0
            assert stats.malformed == 0
            assert report.overall_loss_rate == 0.0
            # The merged view reaches the report keyed by source name.
            assert stats.name in report.ingest
        assert report_one.flow_records == report_two.flow_records

    def test_two_workers_really_share_the_port(self):
        """Both workers bind; the achieved SO_RCVBUF is surfaced."""
        datagrams = _datagrams(count=40)
        _rows, _report, source = _run_async_live(2, datagrams)
        assert len(source._stats_parts) == 2
        assert source.ingest_stats.recv_buffer_bytes > 0


class TestWorkerDeath:
    def test_dead_worker_surfaces_warning_not_hang(self):
        """SIGKILL one of two workers mid-ingest: the run still
        terminates and the report carries a warning for the death."""
        datagrams = _datagrams(count=40)
        source = ReuseportUdpIngest(workers=2, batch_rows=32,
                                    poll_interval=0.02)
        sink = io.StringIO()
        engine = AsyncEngine(EngineConfig(), sink=sink)
        result = {}

        def run():
            result["report"] = engine.run([_dns_records()], [source])

        thread = threading.Thread(target=run)
        thread.start()
        try:
            address = source.wait_ready(10.0)
            _blast(datagrams, address)
            time.sleep(0.3)
            os.kill(source.processes[0].pid, signal.SIGKILL)
            time.sleep(0.3)
            engine.request_stop()
            thread.join(30.0)
            assert not thread.is_alive(), "run hung on a dead worker"
        finally:
            source.close()
        report = result["report"]
        assert any("died" in warning for warning in report.warnings), (
            report.warnings
        )

    def test_all_workers_dead_run_still_stops(self):
        """Unsupervised, even with every worker killed, the source's
        drain ends and the run stops cleanly (with supervision the
        workers would respawn)."""
        source = ReuseportUdpIngest(workers=2, poll_interval=0.02,
                                    supervise=False)
        engine, thread, result = _start_run(source)
        try:
            source.wait_ready(10.0)
            for process in source.processes:
                os.kill(process.pid, signal.SIGKILL)
            _wait_for(lambda: len(source.ingest_errors) == 2,
                      "both deaths reported")
            report = _stop_run(engine, thread, result)
        finally:
            source.close()
        assert sum("died" in warning for warning in report.warnings) == 2, (
            report.warnings
        )


class TestSupervision:
    """The supervised lifecycle: dead workers respawn, counters survive.

    These gate the service-hardening contract — a SIGKILL'd worker comes
    back on the same port, the merged IngestStats keep counting across
    the generation boundary (never reset), and a slot that keeps dying
    is abandoned once the restart budget is spent, degrading the source
    to its surviving workers instead of burning CPU on respawn loops.
    """

    def test_sigkilled_worker_respawns_with_counter_continuity(self):
        first = _datagrams(count=30)
        second = _datagrams(count=30)
        source = ReuseportUdpIngest(workers=2, batch_rows=32,
                                    poll_interval=0.02,
                                    restart_backoff=0.05)
        engine, thread, result = _start_run(source)
        try:
            address = source.wait_ready(10.0)
            _blast(first, address)
            _wait_for(lambda: source.ingest_stats.received == len(first),
                      "the first blast")

            victim_pid = source.processes[0].pid
            os.kill(victim_pid, signal.SIGKILL)
            _wait_for(lambda: source.restarts >= 1, "a respawn")
            # The slot was refilled by a *new* process, not abandoned.
            _wait_for(lambda: source.processes[0].is_alive(),
                      "the replacement worker")
            assert source.processes[0].pid != victim_pid

            _blast(second, address)
            expected = len(first) + len(second)
            # Counter continuity: the merged view kept summing across the
            # generation boundary instead of resetting at the respawn.
            _wait_for(lambda: source.ingest_stats.received == expected,
                      "the second blast")
            report = _stop_run(engine, thread, result)
        finally:
            source.close()
        assert report.flow_records == (len(first) + len(second)) * 10
        assert any("respawning" in e for e in source.ingest_errors), (
            source.ingest_errors
        )

    def test_restart_budget_exhaustion_degrades_to_survivors(self):
        source = ReuseportUdpIngest(workers=2, poll_interval=0.02,
                                    max_restarts=1, restart_window=60.0,
                                    restart_backoff=0.05)
        engine, thread, result = _start_run(source)
        try:
            source.wait_ready(10.0)
            # First death: within the budget of 1, so the slot respawns.
            victim_pid = source.processes[0].pid
            os.kill(victim_pid, signal.SIGKILL)
            _wait_for(
                lambda: source.restarts == 1
                and source.processes[0].pid != victim_pid
                and source.processes[0].is_alive(),
                "the first respawn",
            )
            # Second death: the budget is spent, so the slot is abandoned.
            os.kill(source.processes[0].pid, signal.SIGKILL)
            _wait_for(
                lambda: any("abandoned" in e for e in source.ingest_errors),
                "the slot to be abandoned",
            )
            assert source.restarts == 1
            assert any("abandoned" in e and "surviving" in e
                       for e in source.ingest_errors), source.ingest_errors
            # The surviving worker still drains and stops cleanly.
            report = _stop_run(engine, thread, result)
        finally:
            source.close()
        assert any("abandoned" in w for w in report.warnings), report.warnings


class TestConstructionAndStats:
    def test_capture_tee_rejected(self):
        with pytest.raises(ConfigError, match="capture"):
            ReuseportUdpIngest(workers=2, capture=object())

    def test_worker_count_lower_bound(self):
        with pytest.raises(ConfigError, match="at least 1"):
            ReuseportUdpIngest(workers=0)

    def test_merge_ingest_stats_sums_and_takes_min_rcvbuf(self):
        parts = [
            IngestStats(name="a", received=3, accepted=2, dropped=1,
                        malformed=0, bytes_in=100, recv_buffer_bytes=4096),
            IngestStats(name="b", received=5, accepted=5, dropped=0,
                        malformed=1, bytes_in=200, recv_buffer_bytes=2048),
            # A part that never bound reports 0 and must not drag the
            # min below the real sockets' floor.
            IngestStats(name="c", recv_buffer_bytes=0),
        ]
        merged = merge_ingest_stats("merged", parts)
        assert merged.name == "merged"
        assert merged.received == 8
        assert merged.accepted == 7
        assert merged.dropped == 1
        assert merged.malformed == 1
        assert merged.bytes_in == 300
        assert merged.recv_buffer_bytes == 2048

    def test_single_worker_runs_without_reuseport(self):
        """workers=1 must work even where SO_REUSEPORT is missing — it
        binds a plain socket (portability baseline)."""
        source = ReuseportUdpIngest(workers=1, poll_interval=0.02)
        engine, thread, result = _start_run(source)
        try:
            address = source.wait_ready(10.0)
            _blast(_datagrams(count=5), address, senders=1)
            _wait_for(lambda: source.ingest_stats.received == 5, "the blast")
            report = _stop_run(engine, thread, result)
        finally:
            source.close()
        assert report.flow_records == 50
