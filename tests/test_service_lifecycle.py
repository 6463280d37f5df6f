"""Service-lifecycle tests for ``flowdns serve``.

The unattended-service contract, end to end:

* the **kill-and-restart drill** the acceptance criteria mandate — a
  real ``serve`` subprocess snapshotting periodically, SIGKILLed (no
  drain, no final snapshot), then a second subprocess restoring from
  the periodic snapshot and correlating flows at non-degraded match
  rates with *zero* DNS re-fed;
* the live **metrics endpoint** (``--metrics-port``): scrape a running
  engine over real HTTP and read the service gauges back;
* **restore degradation**: a corrupt or missing snapshot must warn and
  start empty, never abort the service;
* the new serve flags through ``EngineConfig.from_args``.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.async_engine import AsyncEngine
from repro.core.ingest import TcpDnsIngest
from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.monitor import MetricsHttpServer, parse_exposition
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch
from repro.dns.rr import RRType, a_record
from repro.dns.stream import DnsRecord
from repro.dns.tcp import frame_messages
from repro.dns.wire import DnsMessage, Question, encode_message
from repro.netflow.exporter import FlowExporter
from repro.netflow.records import FlowRecord
from repro.netflow.udp import send_datagrams
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.util.errors import ConfigError, ParseError

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _drill_wires(count):
    """One A record per message: drill{i}.example -> 10.77.0.{i+1}."""
    wires = []
    for i in range(count):
        msg = DnsMessage()
        name = f"drill{i}.example"
        msg.questions.append(Question(name, RRType.A))
        msg.answers.append(a_record(name, f"10.77.0.{i + 1}", 300))
        wires.append(encode_message(msg))
    return wires


def _http_get(addr, path="/metrics"):
    """One blocking HTTP GET; returns (status_line, body_text)."""
    with socket.create_connection(addr, timeout=5.0) as conn:
        conn.sendall(f"GET {path} HTTP/1.1\r\nHost: flowdns\r\n\r\n".encode())
        data = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0].decode(), body.decode()


class _ServeSession:
    """A ``flowdns serve`` subprocess with live stderr line capture."""

    def __init__(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.lines = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self):
        for line in self.proc.stderr:
            self.lines.append(line.rstrip("\n"))

    def wait_line(self, prefix, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.lines):
                if line.startswith(prefix):
                    return line
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise AssertionError(
            f"serve never printed {prefix!r}; stderr so far:\n" + self.stderr()
        )

    def address(self, prefix):
        """Parse 'label : host:port' from the announce line."""
        host, _, port = self.wait_line(prefix).split(":", 1)[1].strip().rpartition(":")
        return host, int(port)

    def stderr(self):
        return "\n".join(self.lines)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        self._reader.join(timeout=10.0)


class TestKillRestartDrill:
    """The acceptance drill: periodic snapshot -> SIGKILL -> restart ->
    correlation resumes at non-degraded match rates."""

    def test_sigkilled_serve_restarts_from_periodic_snapshot(self, tmp_path):
        count = 40
        snap = str(tmp_path / "drill-snapshot.json")
        out = str(tmp_path / "drill-out.tsv")

        # --- Session 1: fill the maps over live TCP, snapshot every 0.2s.
        first = _ServeSession(
            "--flow-port", "0", "--dns-port", "0",
            "--snapshot", snap, "--snapshot-interval", "0.2",
        )
        try:
            first.wait_line("snapshots          :")
            dns_addr = first.address("DNS over TCP")
            with socket.create_connection(dns_addr, timeout=5.0) as conn:
                conn.sendall(frame_messages(_drill_wires(count)))
            # Wait for a *periodic* snapshot that captured every record.
            deadline = time.monotonic() + 30.0
            while True:
                assert time.monotonic() < deadline, (
                    "no complete periodic snapshot; stderr:\n" + first.stderr()
                )
                try:
                    if load_snapshot(DnsStorage(FlowDNSConfig()), snap) == count:
                        break
                except (ParseError, OSError):
                    pass
                time.sleep(0.05)
            # SIGKILL: no drain, no final snapshot — the periodic file is
            # all the restart has.
            first.proc.kill()
            first.proc.wait(timeout=10.0)
        finally:
            first.stop()

        # --- Session 2: restore from the snapshot, feed only flows.
        second = _ServeSession(
            "--flow-port", "0", "--dns-port", "0",
            "--snapshot", snap, "--metrics-port", "0", "--output", out,
        )
        try:
            flow_addr = second.address("NetFlow/IPFIX (UDP)")
            metrics_addr = second.address("metrics (HTTP)")
            now = time.time()
            flows = [
                FlowRecord(ts=now, src_ip=f"10.77.0.{i % count + 1}",
                           dst_ip="100.64.0.1", bytes_=64)
                for i in range(count * 3)
            ]
            for datagram in FlowExporter(version=9, batch_size=20).export(flows):
                send_datagrams([datagram], flow_addr)
                time.sleep(0.002)
            deadline = time.monotonic() + 30.0
            while True:
                assert time.monotonic() < deadline, (
                    "flows never reached the lookup lane; stderr:\n"
                    + second.stderr()
                )
                _, body = _http_get(metrics_addr)
                metrics = parse_exposition(body)
                if metrics.get("flowdns_flow_records_total", 0) >= len(flows):
                    break
                time.sleep(0.05)
            # Mid-run scrape: the restore is visible, and no DNS was fed —
            # every match below comes from the snapshot alone.
            assert metrics["flowdns_restored_entries"] == count
            assert metrics["flowdns_dns_records_total"] == 0
            second.proc.send_signal(signal.SIGTERM)
            assert second.proc.wait(timeout=30.0) == 0
        finally:
            second.stop()

        stderr = second.stderr()
        # Non-degraded: every single flow correlated after the restart.
        assert f"flows correlated     : {count * 3}/{count * 3}" in stderr
        assert f"restored from snap   : {count} entries" in stderr
        rows = [
            line for line in open(out, encoding="utf-8")
            if not line.startswith("#")
        ]
        assert len(rows) == count * 3
        assert all("drill" in row for row in rows)


class TestMetricsEndpoint:
    def test_live_scrape_exposes_service_state(self):
        """Scrape a running AsyncEngine over real HTTP mid-run."""
        engine = AsyncEngine(EngineConfig(metrics_port=0))
        dns_ingest = TcpDnsIngest(clock=lambda: 5.0)
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(report=engine.run([dns_ingest], [])),
            daemon=True,
        )
        thread.start()
        dns_addr = dns_ingest.wait_ready()
        with socket.create_connection(dns_addr, timeout=5.0) as conn:
            conn.sendall(frame_messages(_drill_wires(10)))
        deadline = time.monotonic() + 20.0
        while engine.dns_records_seen < 10 or engine.metrics_address is None:
            assert time.monotonic() < deadline, "fill lane stalled"
            time.sleep(0.01)

        status, body = _http_get(engine.metrics_address)
        engine.request_stop()
        thread.join(timeout=20.0)
        assert not thread.is_alive()

        assert "200" in status
        metrics = parse_exposition(body)
        assert metrics["flowdns_dns_records_total"] == 10.0
        assert metrics["flowdns_map_entries"] == 10.0
        assert metrics["flowdns_storage_evictions_total"] == 0.0
        assert metrics["flowdns_snapshots_written_total"] == 0.0
        assert metrics["flowdns_snapshot_age_seconds"] == -1.0
        # Drained by the time the fill lane counted all 10 records.
        assert metrics['flowdns_stream_buffer_fill{stream="dns[0]"}'] == 0.0
        assert metrics["flowdns_write_rows"] == 0.0
        assert 'flowdns_ingest_received_total{source="tcp-dns' in body
        assert result["report"].dns_records == 10

    def test_render_failure_returns_500_not_crash(self):
        """A failing renderer must answer 500 and keep serving."""

        def _boom():
            raise RuntimeError("boom")

        async def scenario():
            server = MetricsHttpServer(_boom)
            await server.start()
            try:
                import asyncio

                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                data = await reader.read()
                writer.close()
                # Still alive for the next scrape.
                reader2, writer2 = await asyncio.open_connection(*server.address)
                writer2.write(b"GET / HTTP/1.1\r\n\r\n")
                await writer2.drain()
                data2 = await reader2.read()
                writer2.close()
                return data, data2
            finally:
                await server.stop()

        import asyncio

        data, data2 = asyncio.run(scenario())
        assert b"500" in data.split(b"\r\n", 1)[0]
        assert b"boom" in data
        assert b"500" in data2.split(b"\r\n", 1)[0]


class TestRestoreDegradation:
    def _record(self):
        return DnsRecord(1.0, "a.example", RRType.A, 300, "10.1.1.1")

    def test_corrupt_snapshot_warns_and_starts_empty(self, tmp_path):
        path = str(tmp_path / "snap.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{broken json")
        engine = AsyncEngine(EngineConfig(snapshot_path=path))
        report = engine.run([[self._record()]], [[]], dns_first=True)
        assert report.restored_entries == 0
        assert any(
            "snapshot restore" in w and "starting empty" in w
            for w in report.warnings
        )
        # The service still ran — and the end-of-run snapshot replaced
        # the corrupt file with a good one.
        assert report.dns_records == 1
        assert load_snapshot(DnsStorage(FlowDNSConfig()), path) == 1

    def test_mismatched_snapshot_warns_and_starts_empty(self, tmp_path):
        path = str(tmp_path / "snap.json")
        donor = DnsStorage(FlowDNSConfig(a_clear_up_interval=1800.0))
        donor.add_many_columns(DnsBatch.from_records([self._record()]))
        save_snapshot(donor, path)
        engine = AsyncEngine(EngineConfig(
            snapshot_path=path, flowdns=FlowDNSConfig(a_clear_up_interval=900.0)
        ))
        report = engine.run([[]], [[]])
        assert report.restored_entries == 0
        assert any("clear_up_interval" in w and "starting empty" in w
                   for w in report.warnings)

    def test_missing_snapshot_is_a_quiet_cold_start(self, tmp_path):
        path = str(tmp_path / "absent.json")
        engine = AsyncEngine(EngineConfig(snapshot_path=path))
        report = engine.run([[self._record()]], [[]], dns_first=True)
        assert report.restored_entries == 0
        assert report.warnings == []
        # The final-on-drain snapshot pins the run's state for next time.
        assert report.snapshots_written == 1
        assert os.path.exists(path)

    def test_offline_restore_resumes_matching_without_dns(self, tmp_path):
        path = str(tmp_path / "snap.json")
        donor = DnsStorage(FlowDNSConfig())
        for i in range(50):
            donor.add_many_columns(DnsBatch.from_records(
                [DnsRecord(1.0, f"svc{i}.example", RRType.A, 300, f"10.5.0.{i + 1}")]
            ))
        save_snapshot(donor, path)
        flows = [
            FlowRecord(ts=30.0, src_ip=f"10.5.0.{i + 1}",
                       dst_ip="100.64.0.1", bytes_=10)
            for i in range(50)
        ]
        engine = AsyncEngine(EngineConfig(snapshot_path=path))
        report = engine.run([], [list(flows)])
        assert report.restored_entries == 50
        assert report.matched_flows == 50

    def test_exact_ttl_with_snapshot_rejected(self):
        with pytest.raises(ConfigError, match="exact-TTL"):
            EngineConfig(snapshot_path="s.json",
                         flowdns=FlowDNSConfig(exact_ttl=True))


class TestServeFlagValidation:
    """The new serve flags through EngineConfig.from_args."""

    def _live_ns(self, **kw):
        import argparse

        base = dict(host=None, flow_port=None, dns_port=None, duration=None,
                    capture=None)
        base.update(kw)
        return argparse.Namespace(**base)

    def test_snapshot_interval_requires_snapshot(self):
        args = self._live_ns(snapshot=None, snapshot_interval=5.0)
        with pytest.raises(ConfigError, match="--snapshot-interval"):
            EngineConfig.from_args(args, "serve")

    def test_snapshot_interval_must_be_positive(self):
        args = self._live_ns(snapshot="s.json", snapshot_interval=0.0)
        with pytest.raises(ConfigError, match="positive"):
            EngineConfig.from_args(args, "serve")

    def test_negative_stats_interval_rejected(self):
        args = self._live_ns(stats_interval=-1.0)
        with pytest.raises(ConfigError):
            EngineConfig.from_args(args, "serve")

    def test_negative_max_entries_rejected(self):
        args = self._live_ns(max_entries=-1)
        with pytest.raises(ConfigError):
            EngineConfig.from_args(args, "serve")

    def test_service_flags_reach_engine_config(self):
        args = self._live_ns(snapshot="s.json", snapshot_interval=2.5,
                             stats_interval=1.0, metrics_port=0,
                             max_entries=100)
        ec = EngineConfig.from_args(args, "serve")
        assert ec.snapshot_path == "s.json"
        assert ec.snapshot_interval == 2.5
        assert ec.stats_interval == 1.0
        assert ec.metrics_port == 0
        assert ec.flowdns.max_entries_per_map == 100

    def test_snapshot_interval_defaults_without_flag(self):
        ec = EngineConfig.from_args(self._live_ns(snapshot="s.json"), "serve")
        assert ec.snapshot_path == "s.json"
        assert ec.snapshot_interval == 60.0

    def test_cli_rejects_orphan_snapshot_interval(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--duration", "1", "--flow-port", "0",
                   "--dns-port", "0", "--snapshot-interval", "5"])
        assert rc == 2
        assert "--snapshot-interval" in capsys.readouterr().err

    def test_replay_accepts_max_entries(self):
        import argparse

        args = argparse.Namespace(engine="async", max_entries=500)
        ec = EngineConfig.from_args(args, "replay")
        assert ec.flowdns.max_entries_per_map == 500
