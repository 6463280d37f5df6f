"""Tests for the multiprocessing ShardedEngine, including report parity
with the AsyncEngine on identical input."""

import io

import pytest

from repro.core.async_engine import AsyncEngine
from repro.core.config import FlowDNSConfig
from repro.core.sharded import ShardedEngine
from repro.core.variants import ENGINE_VARIANTS, engine_for
from repro.core.writer import parse_result_line
from repro.dns.rr import RRType, a_record, cname_record
from repro.dns.stream import DnsRecord
from repro.dns.wire import DnsMessage, Question, encode_message
from repro.netflow.exporter import FlowExporter
from repro.netflow.records import FlowDirection, FlowRecord
from repro.util.errors import ConfigError


def _dns_records():
    records = [
        DnsRecord(float(i % 40), f"svc{i % 60}.example", RRType.A, 300,
                  f"10.0.{(i % 60) // 30}.{(i % 60) % 30 + 1}")
        for i in range(600)
    ]
    records.append(DnsRecord(1.0, "svc0.example", RRType.CNAME, 600, "edge.cdn.net"))
    records.append(DnsRecord(1.0, "edge.cdn.net", RRType.A, 60, "10.9.9.9"))
    return records


def _flows(matched=900, unmatched=100):
    flows = [
        FlowRecord(ts=float(i % 40),
                   src_ip=f"10.0.{(i % 60) // 30}.{(i % 60) % 30 + 1}",
                   dst_ip="100.64.0.1", bytes_=100 + i % 13)
        for i in range(matched)
    ]
    flows += [
        FlowRecord(ts=float(i % 40), src_ip="172.16.0.9",
                   dst_ip="100.64.0.2", bytes_=37)
        for i in range(unmatched)
    ]
    flows.append(FlowRecord(ts=30.0, src_ip="10.9.9.9", dst_ip="100.64.0.3", bytes_=5))
    return flows


class TestShardedEngine:
    def test_merged_report_matches_async(self):
        dns, flows = _dns_records(), _flows()
        single = AsyncEngine(FlowDNSConfig()).run(
            [list(dns)], [list(flows)], dns_first=True
        )
        sharded = ShardedEngine(
            FlowDNSConfig(engine_batch_size=128), num_shards=3
        ).run([list(dns)], [list(flows)], dns_first=True)
        assert sharded.matched_flows == single.matched_flows
        assert sharded.flow_records == single.flow_records
        assert sharded.dns_records == single.dns_records
        assert sharded.total_bytes == single.total_bytes
        assert sharded.correlated_bytes == single.correlated_bytes
        assert sharded.chain_lengths == single.chain_lengths
        assert sharded.overwrites == single.overwrites
        assert sharded.variant_name == "sharded"

    def test_rows_written_to_sink(self):
        dns, flows = _dns_records(), _flows(matched=50, unmatched=10)
        sink = io.StringIO()
        report = ShardedEngine(
            FlowDNSConfig(engine_batch_size=32), sink=sink, num_shards=2
        ).run([dns], [flows], dns_first=True)
        rows = [parse_result_line(line) for line in sink.getvalue().splitlines()]
        rows = [r for r in rows if r]
        assert len(rows) == len(flows) == report.flow_records
        services = {r["service"] for r in rows if r["service"]}
        assert "svc1.example" in services

    def test_single_shard(self):
        dns, flows = _dns_records(), _flows(matched=40, unmatched=5)
        report = ShardedEngine(FlowDNSConfig(), num_shards=1).run(
            [dns], [flows], dns_first=True
        )
        assert report.flow_records == len(flows)
        assert report.matched_flows == 41

    def test_direction_both_broadcasts_addresses(self):
        dns = [
            DnsRecord(1.0, "dst.example", RRType.A, 300, "10.7.7.7"),
            # Same IP, new name: one overwrite, even though the broadcast
            # replicates the records into every shard.
            DnsRecord(2.0, "other.example", RRType.A, 300, "10.7.7.7"),
        ]
        flows = [
            FlowRecord(ts=3.0, src_ip="172.16.0.1", dst_ip="10.7.7.7", bytes_=50),
            FlowRecord(ts=3.0, src_ip="172.16.0.2", dst_ip="172.16.0.3", bytes_=10),
        ]
        config = FlowDNSConfig(direction=FlowDirection.BOTH)
        report = ShardedEngine(config, num_shards=3).run(
            [dns], [flows], dns_first=True
        )
        assert report.matched_flows == 1
        assert report.overwrites == 1

    def test_wire_and_datagram_inputs(self):
        msg = DnsMessage()
        msg.questions.append(Question("wire.example", RRType.A))
        msg.answers.append(cname_record("wire.example", "e.cdn.net", 300))
        msg.answers.append(a_record("e.cdn.net", "10.3.3.3", 60))
        wire = encode_message(msg)
        flows = [FlowRecord(ts=10.0, src_ip="10.3.3.3", dst_ip="100.64.0.1",
                            bytes_=500)]
        datagrams = list(FlowExporter(version=9, batch_size=10).export(flows))
        report = ShardedEngine(FlowDNSConfig(), num_shards=2).run(
            [[(1.0, wire)]], [datagrams], dns_first=True
        )
        assert report.dns_records == 2
        assert report.matched_flows == 1
        assert report.chain_lengths.get(2) == 1

    def test_empty_run_terminates(self):
        report = ShardedEngine(FlowDNSConfig(), num_shards=2).run([[]], [[]])
        assert report.flow_records == 0
        assert report.dns_records == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigError):
            ShardedEngine(FlowDNSConfig(), num_shards=0)

    def test_dead_shard_raises_instead_of_hanging(self):
        """A shard process killed mid-run must surface as a RuntimeError
        (synthetic report from the drain loop), not a parent hang."""
        import multiprocessing as mp
        import threading
        import time

        dns = _dns_records()
        flows = [
            FlowRecord(ts=1.0, src_ip=f"10.0.0.{i % 30 + 1}",
                       dst_ip="100.64.0.1", bytes_=1)
            for i in range(60000)
        ]
        engine = ShardedEngine(
            FlowDNSConfig(engine_batch_size=32), num_shards=2
        )

        def killer():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                children = mp.active_children()
                if children:
                    children[0].terminate()
                    return
                time.sleep(0.005)

        threading.Thread(target=killer, daemon=True).start()
        with pytest.raises(RuntimeError, match="shard"):
            engine.run([dns], [iter(flows)], dns_first=True)


class TestEngineRegistry:
    def test_registry_names(self):
        assert set(ENGINE_VARIANTS) == {"simulation", "sharded", "async"}

    def test_engine_for_instantiates(self):
        from repro.core.simulation import SimulationEngine

        assert isinstance(engine_for("simulation"), SimulationEngine)
        assert isinstance(engine_for("async"), AsyncEngine)
        sharded = engine_for("sharded", num_shards=2)
        assert isinstance(sharded, ShardedEngine)
        assert sharded.num_shards == 2

    def test_engine_for_unknown(self):
        with pytest.raises(ValueError):
            engine_for("quantum")
