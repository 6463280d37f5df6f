"""Tests for the writer, variant factory, and cost-model metrics."""

import io

import pytest

from repro.core.config import FlowDNSConfig
from repro.core.lookup import CorrelationBatch, CorrelationResult
from repro.core.metrics import CostModel, CostModelParams, EngineReport, IntervalCounters, IntervalSample
from repro.core.variants import FIGURE3_VARIANTS, FIGURE7_VARIANTS, Variant, config_for
from repro.core.writer import (
    NULL_SERVICE,
    DiscardSink,
    WriteWorker,
    format_batch,
    parse_result_line,
)
from repro.netflow.records import FlowBatch, FlowRecord


def _result(matched=True, bytes_=100, ts=10.0):
    flow = FlowRecord(ts=ts, src_ip="10.0.0.1", dst_ip="100.64.0.9",
                      src_port=443, dst_port=50001, packets=3, bytes_=bytes_)
    chain = ("edge.cdn.net", "svc.example") if matched else ()
    return CorrelationResult(flow=flow, chain=chain, ts=ts)


class TestFormatParse:
    def test_matched_row_round_trip(self):
        (row,) = format_batch(_batch(_result()))
        parsed = parse_result_line(row)
        assert parsed["service"] == "svc.example"
        assert parsed["chain"] == ("edge.cdn.net", "svc.example")
        assert parsed["bytes"] == 100

    def test_null_row(self):
        (row,) = format_batch(_batch(_result(matched=False)))
        assert f"\t{NULL_SERVICE}\t" in row
        parsed = parse_result_line(row)
        assert parsed["service"] is None and parsed["chain"] == ()

    def test_comments_and_blank_skipped(self):
        assert parse_result_line("# header") is None
        assert parse_result_line("   ") is None

    def test_malformed_row_raises(self):
        with pytest.raises(ValueError):
            parse_result_line("a\tb\tc")


def _batch(*results):
    """One CorrelationBatch holding the given results' rows."""
    flows = FlowBatch.from_records(r.flow for r in results)
    chains = [r.chain for r in results]
    matched = sum(1 for chain in chains if chain)
    return CorrelationBatch(flows, chains, matched=matched)


class TestWriteWorker:
    def test_writes_header_and_rows(self):
        sink = io.StringIO()
        worker = WriteWorker(sink)
        worker.write_batch(_batch(_result()))
        lines = sink.getvalue().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 2

    def test_delay_tracking(self):
        worker = WriteWorker(DiscardSink())
        worker.write_batch(_batch(_result(ts=10.0)), delay=30.0)
        worker.write_batch(_batch(_result(ts=10.0)), delay=15.0)
        assert worker.stats.max_delay == 30.0

    def test_matched_rows_counted(self):
        worker = WriteWorker(DiscardSink())
        worker.write_batch(_batch(_result(), _result(matched=False)))
        assert worker.stats.rows == 2
        assert worker.stats.matched_rows == 1

    def test_discard_sink_reports_length(self):
        assert DiscardSink().write("hello") == 5


class TestVariantFactory:
    def test_main_has_everything_on(self):
        config = config_for(Variant.MAIN)
        assert config.split_enabled and config.clear_up_enabled
        assert config.rotation_enabled and config.long_enabled and not config.exact_ttl

    def test_no_split(self):
        assert config_for(Variant.NO_SPLIT).split_enabled is False
        assert config_for(Variant.NO_SPLIT).effective_num_split == 1

    def test_no_clear_up(self):
        assert config_for(Variant.NO_CLEAR_UP).clear_up_enabled is False

    def test_no_rotation(self):
        assert config_for(Variant.NO_ROTATION).rotation_enabled is False

    def test_no_long(self):
        assert config_for(Variant.NO_LONG).long_enabled is False

    def test_exact_ttl(self):
        assert config_for(Variant.EXACT_TTL).exact_ttl is True

    def test_base_config_preserved(self):
        base = FlowDNSConfig(num_split=20)
        assert config_for(Variant.NO_ROTATION, base).num_split == 20

    def test_figure_variant_sets(self):
        assert Variant.MAIN in FIGURE3_VARIANTS
        assert Variant.NO_SPLIT not in FIGURE7_VARIANTS  # "complete overlap with Main"
        assert len(FIGURE3_VARIANTS) == 5 and len(FIGURE7_VARIANTS) == 4


class TestCostModel:
    def _counters(self, dns=1000, flows=5000, duration=100.0):
        c = IntervalCounters()
        c.duration = duration
        c.dns_records = dns
        c.flow_records = flows
        c.writes = flows
        return c

    def test_cpu_has_worker_baseline(self):
        params = CostModelParams()
        model = CostModel(params, num_splits=10, exact_ttl=False, workers=60)
        empty = IntervalCounters()
        empty.duration = 100.0
        assert model.cpu_percent(empty) == 60 * params.per_worker_cpu_percent

    def test_cpu_grows_with_rate(self):
        model = CostModel(CostModelParams(rate_scale=100), 10, False, 8)
        low = model.cpu_percent(self._counters(flows=1000))
        high = model.cpu_percent(self._counters(flows=10000))
        assert high > low

    def test_split_overhead_increases_cpu(self):
        """Section 6: splitting consumes more CPU for the same data."""
        params = CostModelParams(rate_scale=100)
        split = CostModel(params, num_splits=10, exact_ttl=False, workers=8)
        unsplit = CostModel(params, num_splits=1, exact_ttl=False, workers=8)
        counters = self._counters()
        assert split.cpu_percent(counters) > unsplit.cpu_percent(counters)

    def test_exact_ttl_multiplies_demand(self):
        params = CostModelParams(rate_scale=100)
        main = CostModel(params, 10, False, 8)
        exact = CostModel(params, 10, True, 8)
        counters = self._counters()
        assert exact.demand_units_per_sec(counters) > 10 * main.demand_units_per_sec(counters)

    def test_loss_zero_under_capacity(self):
        model = CostModel(CostModelParams(rate_scale=1), 10, False, 8)
        assert model.loss_rate(self._counters()) == 0.0

    def test_loss_when_demand_exceeds_capacity(self):
        params = CostModelParams(rate_scale=1e6, capacity_units_per_sec=1e6)
        model = CostModel(params, 10, False, 8)
        loss = model.loss_rate(self._counters())
        assert 0.0 < loss < 1.0

    def test_memory_scales_with_entries(self):
        params = CostModelParams(entry_scale=1000)
        model = CostModel(params, 10, False, 8)
        assert model.memory_bytes(2000) > model.memory_bytes(1000)

    def test_exact_ttl_memory_multiplier(self):
        params = CostModelParams(entry_scale=1000)
        main = CostModel(params, 10, False, 8)
        exact = CostModel(params, 10, True, 8)
        delta_main = main.memory_bytes(1000) - main.memory_bytes(0)
        delta_exact = exact.memory_bytes(1000) - exact.memory_bytes(0)
        assert abs(delta_exact / delta_main - params.exact_ttl_entry_multiplier) < 1e-9

    def test_zero_duration_interval(self):
        model = CostModel(CostModelParams(), 10, False, 8)
        c = IntervalCounters()
        assert model.demand_units_per_sec(c) == 0.0
        assert model.loss_rate(c) == 0.0


class TestEngineReport:
    def test_correlation_rate(self):
        report = EngineReport(total_bytes=1000, correlated_bytes=817)
        assert abs(report.correlation_rate - 0.817) < 1e-9

    def test_empty_report_is_zeroes(self):
        report = EngineReport()
        assert report.correlation_rate == 0.0
        assert report.mean_cpu_percent == 0.0

    def test_sample_aggregates(self):
        samples = [
            IntervalSample(0, 1, cpu_percent=100, memory_bytes=2**30, traffic_bytes=10,
                           correlated_bytes=5, dns_records=1, flow_records=1,
                           loss_rate=0.0, map_entries=10),
            IntervalSample(1, 2, cpu_percent=300, memory_bytes=3 * 2**30, traffic_bytes=10,
                           correlated_bytes=10, dns_records=1, flow_records=1,
                           loss_rate=0.0, map_entries=10),
        ]
        report = EngineReport(samples=samples)
        assert report.mean_cpu_percent == 200
        assert report.hourly_correlation_rates() == [0.5, 1.0]

    def test_interval_sample_properties(self):
        sample = IntervalSample(0, 1, 0, 2**30, traffic_bytes=100, correlated_bytes=81,
                                dns_records=0, flow_records=0, loss_rate=0, map_entries=0)
        assert sample.memory_gb == 1.0
        assert abs(sample.correlation_rate - 0.81) < 1e-9
