"""Tests for the deterministic simulation engine."""

import heapq
import io

import pytest

from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import LookUpProcessor
from repro.core.metrics import CostModelParams
from repro.core.simulation import SimulationEngine
from repro.core.storage_adapter import DnsStorage
from repro.core.variants import Variant, config_for
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowRecord
from repro.reference import correlate_record, fill_record, format_result
from repro.workloads.isp import small_isp


def _dns(ts, query, rtype, ttl, answer):
    return DnsRecord(ts, query, rtype, ttl, answer)


def _flow(ts, src, bytes_=100):
    return FlowRecord(ts=ts, src_ip=src, dst_ip="100.64.0.1", bytes_=bytes_)


def _basic_streams():
    dns = [
        _dns(10.0, "svc.example", RRType.CNAME, 600, "edge.cdn.net"),
        _dns(10.0, "edge.cdn.net", RRType.A, 60, "10.1.1.1"),
        _dns(20.0, "other.example", RRType.A, 120, "10.2.2.2"),
    ]
    flows = [
        _flow(30.0, "10.1.1.1", 1000),
        _flow(31.0, "10.2.2.2", 500),
        _flow(32.0, "172.16.0.9", 700),  # never resolved
    ]
    return dns, flows


class TestBasicRun:
    def test_correlation_accounting(self):
        dns, flows = _basic_streams()
        report = SimulationEngine(FlowDNSConfig(), sample_interval=1000.0).run(dns, flows)
        assert report.flow_records == 3
        assert report.dns_records == 3
        assert report.matched_flows == 2
        assert report.total_bytes == 2200
        assert report.correlated_bytes == 1500

    def test_deterministic_across_runs(self):
        dns, flows = _basic_streams()
        r1 = SimulationEngine(FlowDNSConfig()).run(list(dns), list(flows))
        r2 = SimulationEngine(FlowDNSConfig()).run(list(dns), list(flows))
        assert r1.correlated_bytes == r2.correlated_bytes
        assert r1.chain_lengths == r2.chain_lengths

    def test_empty_streams(self):
        report = SimulationEngine(FlowDNSConfig()).run([], [])
        assert report.samples == []
        assert report.correlation_rate == 0.0

    def test_dns_before_flow_at_same_timestamp(self):
        dns = [_dns(10.0, "x.example", RRType.A, 60, "10.9.9.9")]
        flows = [_flow(10.0, "10.9.9.9")]
        report = SimulationEngine(FlowDNSConfig()).run(dns, flows)
        assert report.matched_flows == 1

    def test_output_rows_written(self):
        sink = io.StringIO()
        dns, flows = _basic_streams()
        SimulationEngine(FlowDNSConfig(), sink=sink).run(dns, flows)
        rows = [line for line in sink.getvalue().splitlines() if not line.startswith("#")]
        assert len(rows) == 3

    def test_on_result_hook(self):
        seen = []
        dns, flows = _basic_streams()
        SimulationEngine(FlowDNSConfig(), on_result=seen.append).run(dns, flows)
        assert len(seen) == 3
        assert sum(1 for r in seen if r.matched) == 2


class TestSampling:
    def test_interval_samples_emitted(self):
        dns = [_dns(float(i), f"n{i}.example", RRType.A, 60, f"10.0.{i // 250}.{i % 250 + 1}")
               for i in range(0, 1000, 2)]
        flows = [_flow(float(i) + 0.5, "10.0.0.1", 10) for i in range(0, 1000, 2)]
        engine = SimulationEngine(FlowDNSConfig(), sample_interval=100.0)
        report = engine.run(dns, flows)
        assert len(report.samples) >= 9
        for sample in report.samples[:-1]:
            assert sample.t_end - sample.t_start == pytest.approx(100.0)
        # The final sample may be a partial interval ending at the last record.
        last = report.samples[-1]
        assert 0.0 < last.t_end - last.t_start <= 100.0

    def test_write_delay_bounded_by_flush_interval(self):
        dns = [_dns(0.0, "x.example", RRType.A, 60, "10.1.1.1")]
        flows = [_flow(float(t), "10.1.1.1") for t in range(0, 500, 5)]
        engine = SimulationEngine(FlowDNSConfig(), sample_interval=1000.0)
        report = engine.run(dns, flows)
        assert 0.0 < report.max_write_delay <= 45.0

    def test_memory_tracks_entries(self):
        dns = [_dns(float(i), f"n{i}.example", RRType.A, 60, f"10.{i // 250}.{(i % 250) + 1}.1")
               for i in range(500)]
        engine = SimulationEngine(FlowDNSConfig(), sample_interval=100.0)
        report = engine.run(dns, [])
        entries = [s.map_entries for s in report.samples]
        assert entries == sorted(entries)  # grows while nothing clears


class TestRotationInSimulation:
    def test_clear_up_loses_very_old_records(self):
        config = FlowDNSConfig()
        dns = [_dns(0.0, "old.example", RRType.A, 60, "10.1.1.1")]
        # Flow arrives 3 clear-up intervals later; record must be gone.
        flows = [_flow(3 * 3600.0 + 100.0, "10.1.1.1")]
        # Interleave dummy DNS to drive the clear-up clock.
        driver = [
            _dns(t, f"d{t}.example", RRType.A, 60, "10.8.8.8")
            for t in range(600, 4 * 3600, 600)
        ]
        report = SimulationEngine(config).run(sorted(dns + driver, key=lambda r: r.ts), flows)
        assert report.matched_flows == 0

    def test_no_clear_up_keeps_very_old_records(self):
        config = config_for(Variant.NO_CLEAR_UP)
        dns = [_dns(0.0, "old.example", RRType.A, 60, "10.1.1.1")]
        driver = [
            _dns(t, f"d{t}.example", RRType.A, 60, "10.8.8.8")
            for t in range(600, 4 * 3600, 600)
        ]
        flows = [_flow(3 * 3600.0 + 100.0, "10.1.1.1")]
        report = SimulationEngine(config).run(sorted(dns + driver, key=lambda r: r.ts), flows)
        assert report.matched_flows == 1

    def test_rotation_keeps_previous_interval(self):
        config = FlowDNSConfig()
        dns = [_dns(0.0, "prev.example", RRType.A, 60, "10.1.1.1")]
        driver = [_dns(3700.0, "d.example", RRType.A, 60, "10.8.8.8")]
        flows = [_flow(3800.0, "10.1.1.1")]
        report = SimulationEngine(config).run(dns + driver, flows)
        assert report.matched_flows == 1

    def test_no_rotation_loses_previous_interval(self):
        config = config_for(Variant.NO_ROTATION)
        dns = [_dns(0.0, "prev.example", RRType.A, 60, "10.1.1.1")]
        driver = [_dns(3700.0, "d.example", RRType.A, 60, "10.8.8.8")]
        flows = [_flow(3800.0, "10.1.1.1")]
        report = SimulationEngine(config).run(dns + driver, flows)
        assert report.matched_flows == 0

    def test_long_hashmap_keeps_long_ttl_record(self):
        config = FlowDNSConfig()
        dns = [_dns(0.0, "long.example", RRType.A, 86400, "10.1.1.1")]
        driver = [
            _dns(t, f"d{t}.example", RRType.A, 60, "10.8.8.8")
            for t in range(600, 6 * 3600, 600)
        ]
        flows = [_flow(5 * 3600.0, "10.1.1.1")]
        report = SimulationEngine(config).run(sorted(dns + driver, key=lambda r: r.ts), flows)
        assert report.matched_flows == 1

    def test_no_long_loses_long_ttl_record(self):
        config = config_for(Variant.NO_LONG)
        dns = [_dns(0.0, "long.example", RRType.A, 86400, "10.1.1.1")]
        driver = [
            _dns(t, f"d{t}.example", RRType.A, 60, "10.8.8.8")
            for t in range(600, 6 * 3600, 600)
        ]
        flows = [_flow(5 * 3600.0, "10.1.1.1")]
        report = SimulationEngine(config).run(sorted(dns + driver, key=lambda r: r.ts), flows)
        assert report.matched_flows == 0


class TestExactTtlInSimulation:
    def test_exact_ttl_respects_record_ttl(self):
        config = config_for(Variant.EXACT_TTL)
        dns = [_dns(0.0, "x.example", RRType.A, 60, "10.1.1.1")]
        flows = [_flow(30.0, "10.1.1.1"), _flow(120.0, "10.1.1.1")]
        report = SimulationEngine(config).run(dns, flows)
        assert report.matched_flows == 1  # the 120 s flow is past TTL

    def test_overwrites_counted(self):
        dns = [
            _dns(0.0, "first.example", RRType.A, 60, "10.1.1.1"),
            _dns(1.0, "second.example", RRType.A, 60, "10.1.1.1"),
        ]
        report = SimulationEngine(FlowDNSConfig()).run(dns, [])
        assert report.overwrites == 1


def _per_record_reference(config, dns, flows):
    """The per-record oracle loop: one ``fill_record``/``correlate_record``
    per record in the simulation's merge order (DNS first at equal ts),
    one ``format_result`` row per flow, and under exact-TTL a ``tick``
    after every DNS record (the rotating store's clear-up clock runs
    inside each put)."""
    storage = DnsStorage(config)
    fillup = FillUpProcessor(storage)
    lookup = LookUpProcessor(storage, config)
    rows = []
    merged = heapq.merge(
        ((rec.ts, 0, rec) for rec in dns),
        ((rec.ts, 1, rec) for rec in flows),
        key=lambda item: (item[0], item[1]),
    )
    for ts, kind, record in merged:
        if kind == 0:
            fill_record(fillup, record)
            if config.exact_ttl:
                storage.tick(ts)
        else:
            rows.append(format_result(correlate_record(lookup, record)))
    return rows, lookup.stats


class TestMatchesPerRecordOracle:
    """The simulation's same-lane runs through the columnar lanes give
    the rows and correlation counters of the per-record oracle (chain
    memoisation off: with it on, when a shortcut lands is batch-layout
    dependent)."""

    @pytest.mark.parametrize("variant", [Variant.MAIN, Variant.NO_ROTATION, Variant.EXACT_TTL])
    def test_rows_and_counters_equal_the_oracle(self, variant):
        config = config_for(variant, FlowDNSConfig(memoize_cname_chains=False))
        workload = small_isp(duration=1800.0)
        dns, flows = list(workload.dns_records()), list(workload.flow_records())
        expected, stats = _per_record_reference(config, dns, flows)

        sink = io.StringIO()
        report = SimulationEngine(config, sample_interval=300.0, sink=sink).run(dns, flows)
        rows = [line + "\n" for line in sink.getvalue().splitlines() if not line.startswith("#")]

        assert report.overall_loss_rate == 0.0  # the oracle models no overload
        assert stats.matched > 0 and max(stats.chain_lengths) > 1
        assert sorted(rows) == sorted(expected)
        assert report.matched_flows == stats.matched
        assert report.correlated_bytes == stats.bytes_matched
        assert report.chain_lengths == stats.chain_lengths


class TestStarvedSweeper:
    def test_exact_ttl_sweeps_stay_flat_while_overloaded(self):
        config = config_for(Variant.EXACT_TTL, FlowDNSConfig(exact_ttl_sweep_interval=5.0))
        dns = [_dns(float(i), f"n{i}.example", RRType.A, 10, f"10.0.{i // 250}.{i % 250 + 1}")
               for i in range(600)]
        # Far below the exact-TTL fill demand: every interval after the
        # first is overloaded and drops part of the stream.
        engine = SimulationEngine(
            config, cost_params=CostModelParams(capacity_units_per_sec=20.0), sample_interval=100.0
        )
        exact_stores = engine.storage.stores
        at_close = []  # (interval sweep_scanned, lifetime sweeps) per interval
        loss_rate = engine.cost_model.loss_rate

        def spy(counters):
            at_close.append((counters.sweep_scanned, sum(s.stats.sweeps for s in exact_stores)))
            return loss_rate(counters)

        engine.cost_model.loss_rate = spy
        report = engine.run(dns, [])

        samples = report.samples
        assert samples[0].loss_rate > 0.0
        assert at_close[0][0] > 0  # the sweeper ran while the engine kept up
        overloaded = [j for j in range(1, len(samples)) if samples[j - 1].loss_rate > 0.0]
        assert len(overloaded) >= 4
        for j in overloaded:
            assert at_close[j][0] == 0
            assert at_close[j][1] == at_close[j - 1][1]
            # Records still fill while overloaded, so expired entries pile up.
            assert samples[j].map_entries > samples[j - 1].map_entries
