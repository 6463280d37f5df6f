"""Unit tests for the shared pipeline runtime (repro.core.pipeline).

The engines exercise the lanes end-to-end (and the parity suites pin
them equal); these tests cover the runtime's pieces directly — item
normalisation, exact-TTL fill semantics, report assembly, and
ingest-stat collection.
"""

import pytest

from repro.core.async_engine import AsyncEngine
from repro.core.ingest import AsyncBuffer
from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import LookUpProcessor
from repro.core.metrics import EngineReport, IngestStats
from repro.core.pipeline import (
    FillLane,
    LookupLane,
    buffer_loss_rate,
    collect_ingest,
    dns_items_to_batch,
    flow_items_to_batch,
    stack_report,
)
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch
from repro.dns.rr import RRType, a_record
from repro.dns.stream import DnsRecord
from repro.dns.wire import DnsMessage, Question, encode_message
from repro.netflow.collector import FlowCollector
from repro.netflow.exporter import FlowExporter
from repro.netflow.records import FlowBatch, FlowRecord


def _a(ts, name, ip, ttl=300):
    return DnsRecord(ts, name, RRType.A, ttl, ip)


class TestNormalisation:
    def test_dns_item_forms(self):
        record = _a(1.0, "x.example", "10.0.0.1")
        msg = DnsMessage()
        msg.questions.append(Question("w.example", RRType.A))
        msg.answers.append(a_record("w.example", "10.0.0.2", 60))
        wire = encode_message(msg)
        batch = dns_items_to_batch([
            record,
            (2.0, wire),
            (3.0, memoryview(wire)),
            DnsRecord(4.0, "t.example", RRType.TXT, 60, "x"),
            (5.0, msg),  # a decoded message is not a stream item
            (6.0, "garbage"),
            "garbage",
            (1.0, 2.0, 3.0),
        ])
        # Rows in arrival order; the TXT record is skipped, not stored.
        assert [r.query for r in batch.to_records()] == [
            "x.example", "w.example", "w.example"
        ]
        assert batch.ts == [1.0, 2.0, 3.0]
        assert batch.skipped == 1
        # Two wire messages plus four items that are neither a record
        # nor (ts, wire): each of those counts as one invalid message.
        assert batch.messages == 6
        assert batch.invalid == 4

    def test_non_wire_dns_payload_counted_invalid_not_raised(self):
        """A ``(ts, x)`` DNS item whose ``x`` is not wire bytes is one
        invalid message, like unparseable bytes; the run completes."""
        report = AsyncEngine(FlowDNSConfig()).run(
            [[(1.0, "garbage"), _a(2.0, "ok.example", "10.0.0.9")]], [[]]
        )
        assert report.dns_invalid == 1
        assert report.dns_records == 1
        assert report.final_map_entries == 1

    def test_flow_item_mix_accumulates(self):
        flows = [
            FlowRecord(ts=1.0, src_ip="10.0.0.1", dst_ip="100.64.0.1", bytes_=10),
            FlowRecord(ts=2.0, src_ip="10.0.0.2", dst_ip="100.64.0.2", bytes_=20),
        ]
        datagrams = list(FlowExporter(version=5, batch_size=2).export(flows))
        premade = FlowBatch()
        premade.append_record(flows[0])
        items = [flows[1], premade, *datagrams, object()]  # unknown item ignored
        batch = flow_items_to_batch(items, FlowCollector())
        assert len(batch) == 4  # 1 record + 1 batched + 2 decoded
        assert batch.src_ip_text.count("10.0.0.1") == 2


class TestFillLane:
    def test_exact_ttl_processes_per_record_with_sweeps(self):
        config = FlowDNSConfig(exact_ttl=True)
        storage = DnsStorage(config)
        processor = FillUpProcessor(storage)
        # The exact-TTL cadence lives behind the storage's one fill
        # entry, so the lane carries no policy of its own.
        FillLane(processor).process_items([
            _a(0.0, "a.example", "10.0.0.1", ttl=30),
            # 200s later: the first record's TTL has expired and the
            # per-row tick sweeps it out — an amortised fill would not.
            _a(200.0, "b.example", "10.0.0.2", ttl=300),
        ])
        assert processor.stats.records_stored == 2
        assert storage.total_entries() == 1
        assert storage._ip_exact.stats.sweeps == 1

    def test_batched_fill_counts_match_per_record(self):
        config = FlowDNSConfig()
        storage = DnsStorage(config)
        processor = FillUpProcessor(storage)
        lane = FillLane(processor)
        records = [_a(float(i), f"n{i}.example", f"10.0.0.{i + 1}") for i in range(5)]
        lane.process_items(records + [DnsRecord(9.0, "t.example", RRType.TXT, 60, "x")])
        assert processor.stats.records_in == 6
        assert processor.stats.records_stored == 5
        assert processor.stats.records_skipped == 1


class TestLookupLane:
    def test_correlates_and_skips_empty(self):
        config = FlowDNSConfig()
        storage = DnsStorage(config)
        FillUpProcessor(storage).process_columns(
            DnsBatch.from_records([_a(1.0, "svc.example", "10.0.0.1")])
        )
        lane = LookupLane(LookUpProcessor(storage, config))
        assert lane.correlate_items([]) is None
        flow = FlowRecord(ts=2.0, src_ip="10.0.0.1", dst_ip="100.64.0.1", bytes_=7)
        correlated = lane.correlate_items([flow])
        assert correlated.matched == 1
        assert correlated.chains[0] == ("svc.example",)


class TestReportAssembly:
    def test_stack_report_sums_every_lane_processor(self):
        """Two fill and two lookup lanes over one storage (two sources
        per lane): lane counters sum, storage counters are counted once."""
        config = FlowDNSConfig()
        storage = DnsStorage(config)
        fillups = [FillUpProcessor(storage) for _ in range(2)]
        lookups = [LookUpProcessor(storage, config) for _ in range(2)]
        for offset, (fillup, lookup) in enumerate(zip(fillups, lookups)):
            fillup.process_columns(DnsBatch.from_records(
                [_a(1.0, f"s{offset}.example", f"10.0.0.{offset + 1}")]
            ))
            lookup.correlate_batch_columns(FlowBatch.from_records([
                FlowRecord(ts=2.0, src_ip=f"10.0.0.{offset + 1}",
                           dst_ip="100.64.0.1", bytes_=100)
            ]))
        report = stack_report(fillups, lookups, storage, variant_name="x")
        assert report.variant_name == "x"
        assert report.flow_records == 2
        assert report.matched_flows == 2
        assert report.dns_records == 2
        assert report.total_bytes == 200
        assert report.correlated_bytes == 200
        assert report.chain_lengths == {1: 2}
        assert report.final_map_entries == storage.total_entries() == 2

    def test_buffer_loss_rate(self):
        buffer = AsyncBuffer(2, name="small")
        for i in range(5):
            buffer.try_put(i)
        assert buffer_loss_rate([buffer]) == pytest.approx(3 / 5)
        assert buffer_loss_rate([]) == 0.0

    def test_stack_report_with_no_processors(self):
        """A run with no sources reports all zeros over empty processor
        sequences, not a crash."""
        config = FlowDNSConfig()
        storage = DnsStorage(config)
        report = stack_report([], [], storage, variant_name="x")
        assert report.flow_records == 0
        assert report.dns_records == 0
        assert report.matched_flows == 0
        assert report.total_bytes == 0
        assert report.chain_lengths == {}
        assert report.final_map_entries == 0
        assert report.overwrites == 0
        assert report.correlation_rate == 0.0


class TestCollectIngest:
    def test_collects_and_disambiguates(self):
        class Source:
            def __init__(self, stats):
                self.ingest_stats = stats

        report = EngineReport()
        collect_ingest(report, [
            Source(IngestStats(name="udp[a]", received=1)),
            Source(IngestStats(name="udp[a]", received=2)),  # name collision
            object(),  # no stats: ignored
        ])
        assert report.ingest["udp[a]"].received == 1
        assert len(report.ingest) == 2
        assert sum(s.received for s in report.ingest.values()) == 3


class TestIngestStats:
    def test_loss_rate_zero_when_nothing_received(self):
        """The empty-worker shape: a listener that never saw a datagram
        reports 0.0 loss, not a ZeroDivisionError."""
        assert IngestStats(name="idle").loss_rate == 0.0

    def test_loss_rate_all_dropped(self):
        """The all-dropped edge: every received unit bounced off a full
        buffer — loss is exactly 1.0 and the counters stay consistent."""
        stats = IngestStats(name="drowned", received=7, accepted=0, dropped=7)
        assert stats.loss_rate == 1.0
        assert stats.received == stats.accepted + stats.dropped

    def test_all_dropped_buffer_feeds_report_loss(self):
        """An ingest buffer that dropped everything drives the merged
        report's overall_loss_rate to 1.0 through buffer_loss_rate."""
        class Stats:
            offered = 7
            dropped = 7

        class Buffer:
            stats = Stats()

        assert buffer_loss_rate([Buffer()]) == 1.0
