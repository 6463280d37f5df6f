"""Tests for metrics exposition and figure-data export."""

import io

from repro.analysis.figures import (
    figure2_rows,
    figure3_rows,
    figure7_rows,
    render_report_summary,
    sparkline,
    write_tsv,
)
from repro.core.async_engine import AsyncEngine
from repro.core.config import FlowDNSConfig
from repro.core.metrics import EngineReport, IntervalSample
from repro.core.monitor import parse_exposition, render_async_engine, render_report
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowRecord


def _report():
    samples = [
        IntervalSample(t_start=h * 3600.0, t_end=(h + 1) * 3600.0,
                       cpu_percent=2400 + 50 * h, memory_bytes=(16 + h) * 2**30,
                       traffic_bytes=10**9 * (h + 1), correlated_bytes=int(0.8 * 10**9 * (h + 1)),
                       dns_records=100, flow_records=500, loss_rate=0.0,
                       map_entries=5000 + h)
        for h in range(4)
    ]
    return EngineReport(
        samples=samples, total_bytes=10**10, correlated_bytes=8 * 10**9,
        dns_records=400, flow_records=2000, matched_flows=1600,
        chain_lengths={1: 700, 2: 800, 3: 100},
    )


class TestRenderReport:
    def test_exposition_contains_core_metrics(self):
        text = render_report(_report())
        metrics = parse_exposition(text)
        assert metrics["flowdns_correlation_rate"] == 0.8
        assert metrics["flowdns_flow_records_total"] == 2000
        assert metrics['flowdns_chains_total{length="2"}'] == 800

    def test_headers_emitted_once(self):
        text = render_report(_report())
        assert text.count("# TYPE flowdns_chains_total counter") == 1

    def test_parse_skips_comments(self):
        metrics = parse_exposition("# HELP x y\n# TYPE x gauge\nx 1.5\n")
        assert metrics == {"x": 1.5}


class TestRenderEngine:
    def test_live_engine_metrics(self):
        dns = [DnsRecord(1.0, "a.example", RRType.A, 60, "10.1.1.1")]

        engine = AsyncEngine(FlowDNSConfig())
        flows = [FlowRecord(ts=2.0, src_ip="10.1.1.1", dst_ip="100.64.0.1", bytes_=10)]
        engine.run(dns, flows)
        metrics = parse_exposition(render_async_engine(engine))
        assert metrics['flowdns_stream_offered_total{stream="dns[0]"}'] == 1.0
        assert metrics['flowdns_stream_buffer_fill{stream="netflow[0]"}'] == 0.0
        assert metrics["flowdns_write_rows"] == 1.0
        active_key = 'flowdns_storage_entries{bank="ip_name",tier="active"}'
        assert metrics[active_key] == 1.0


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▄▄▄"

    def test_monotone_series_rises(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"

    def test_downsampling(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10


class TestFigureRows:
    def test_figure2_rows(self):
        rows = figure2_rows(_report())
        assert len(rows) == 4
        t, cpu, mem, traffic = rows[0]
        assert t == 0.0 and cpu == 2400 and mem == 16.0 and traffic == 10**9

    def test_figure3_rows_long_format(self):
        rows = figure3_rows({"main": _report(), "no-split": _report()})
        assert len(rows) == 8
        assert {r[0] for r in rows} == {"main", "no-split"}

    def test_figure7_rows_skip_empty_intervals(self):
        report = _report()
        report.samples.append(
            IntervalSample(t_start=4 * 3600.0, t_end=5 * 3600.0, cpu_percent=0,
                           memory_bytes=0, traffic_bytes=0, correlated_bytes=0,
                           dns_records=0, flow_records=0, loss_rate=0, map_entries=0)
        )
        rows = figure7_rows({"main": report})
        assert len(rows) == 4  # the empty interval is excluded

    def test_write_tsv(self):
        sink = io.StringIO()
        count = write_tsv(sink, ("a", "b"), [(1, 2), (3, 4)])
        assert count == 2
        lines = sink.getvalue().splitlines()
        assert lines[0] == "# a\tb"
        assert lines[1] == "1\t2"

    def test_render_summary_mentions_key_numbers(self):
        text = render_report_summary(_report(), title="test run")
        assert "80.0%" in text
        assert "CPU" in text and "mem" in text
