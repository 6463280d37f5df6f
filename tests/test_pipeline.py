"""Unit tests for the shared pipeline runtime (repro.core.pipeline).

The engines exercise the lanes end-to-end (and the parity suites pin
them equal); these tests cover the runtime's pieces directly — item
normalisation, exact-TTL fill semantics, summary merging, and
ingest-stat collection.
"""

import pytest

from repro.core.async_engine import AsyncBuffer
from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import LookUpProcessor
from repro.core.metrics import EngineReport, IngestStats
from repro.core.pipeline import (
    FillLane,
    LookupLane,
    buffer_loss_rate,
    collect_ingest,
    dns_item_records,
    empty_summary,
    flow_items_to_batch,
    merge_summaries,
    stack_summary,
)
from repro.core.storage_adapter import DnsStorage
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
        processor = FillUpProcessor(storage=None)
        record = _a(1.0, "x.example", "10.0.0.1")
        assert dns_item_records(record, processor) == (record,)

        msg = DnsMessage()
        msg.questions.append(Question("w.example", RRType.A))
        msg.answers.append(a_record("w.example", "10.0.0.2", 60))
        wire = encode_message(msg)
        records = dns_item_records((2.0, wire), processor)
        assert [r.query for r in records] == ["w.example"]

        assert dns_item_records("garbage", processor) == ()
        assert dns_item_records((1.0, 2.0, 3.0), processor) == ()

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
        FillUpProcessor(storage).process(_a(1.0, "svc.example", "10.0.0.1"))
        lane = LookupLane(LookUpProcessor(storage, config))
        assert lane.correlate_items([]) is None
        flow = FlowRecord(ts=2.0, src_ip="10.0.0.1", dst_ip="100.64.0.1", bytes_=7)
        correlated = lane.correlate_items([flow])
        assert correlated.matched == 1
        assert correlated.chains[0] == ("svc.example",)


class TestReportAssembly:
    def test_merge_two_stacks(self):
        config = FlowDNSConfig()
        summaries = []
        for offset in (0, 10):
            storage = DnsStorage(config)
            fillup = FillUpProcessor(storage)
            lookup = LookUpProcessor(storage, config)
            fillup.process(_a(1.0, f"s{offset}.example", f"10.0.0.{offset + 1}"))
            lookup.process(
                FlowRecord(ts=2.0, src_ip=f"10.0.0.{offset + 1}",
                           dst_ip="100.64.0.1", bytes_=100)
            )
            summaries.append(stack_summary([fillup], [lookup], storage, shard_id=offset))
        report = merge_summaries(summaries, variant_name="x")
        assert report.flow_records == 2
        assert report.matched_flows == 2
        assert report.dns_records == 2
        assert report.total_bytes == 200
        assert report.chain_lengths == {1: 2}
        assert report.final_map_entries == 2

    def test_dns_override_and_broadcast_overwrites(self):
        base = empty_summary(0, None)
        base.update(records_in=5, overwrites=3)
        other = empty_summary(1, None)
        other.update(records_in=5, overwrites=3)
        report = merge_summaries(
            [base, other], variant_name="x",
            dns_records=5, broadcast_overwrites=True,
        )
        assert report.dns_records == 5  # router-side count, not 10
        assert report.overwrites == 3  # max, not sum

    def test_empty_summary_shape_matches_stack_summary(self):
        config = FlowDNSConfig()
        storage = DnsStorage(config)
        real = stack_summary(
            [FillUpProcessor(storage)], [LookUpProcessor(storage, config)], storage
        )
        assert set(empty_summary(0, "boom")) == set(real)

    def test_buffer_loss_rate(self):
        buffer = AsyncBuffer(2, name="small")
        for i in range(5):
            buffer.try_put(i)
        assert buffer_loss_rate([buffer]) == pytest.approx(3 / 5)
        assert buffer_loss_rate([]) == 0.0

    def test_merge_no_summaries_yields_zero_report(self):
        """An engine whose workers all died before reporting still merges
        — to an all-zero report, not a crash on empty sums."""
        report = merge_summaries([], variant_name="x")
        assert report.flow_records == 0
        assert report.dns_records == 0
        assert report.matched_flows == 0
        assert report.total_bytes == 0
        assert report.chain_lengths == {}
        assert report.final_map_entries == 0
        assert report.overwrites == 0
        assert report.correlation_rate == 0.0

    def test_merge_empty_broadcast_overwrites_default(self):
        """broadcast_overwrites takes max() over no stacks: the explicit
        default=0 guard, not a ValueError."""
        report = merge_summaries([], variant_name="x", broadcast_overwrites=True)
        assert report.overwrites == 0

    def test_merge_all_dead_workers(self):
        """Every shard reporting the synthetic empty_summary (worker died
        mid-run) merges to zeros with the errors still visible per dict."""
        summaries = [empty_summary(i, f"shard {i} died") for i in range(3)]
        report = merge_summaries(summaries, variant_name="sharded")
        assert report.flow_records == 0
        assert report.matched_flows == 0
        assert report.correlation_rate == 0.0
        assert all(s["error"] for s in summaries)

    def test_merge_mixed_dead_and_live_workers(self):
        """One dead stack must not zero out the survivors' counters."""
        config = FlowDNSConfig()
        storage = DnsStorage(config)
        fillup = FillUpProcessor(storage)
        lookup = LookUpProcessor(storage, config)
        fillup.process(_a(1.0, "live.example", "10.0.0.1"))
        lookup.process(
            FlowRecord(ts=2.0, src_ip="10.0.0.1", dst_ip="100.64.0.1",
                       bytes_=100)
        )
        live = stack_summary([fillup], [lookup], storage, shard_id=0)
        report = merge_summaries(
            [live, empty_summary(1, "boom")], variant_name="sharded"
        )
        assert report.flow_records == 1
        assert report.matched_flows == 1
        assert report.dns_records == 1

    def test_stack_summary_with_no_processors(self):
        """A stack that never got a worker (empty source list) summarises
        to zeros over empty processor sequences."""
        config = FlowDNSConfig()
        storage = DnsStorage(config)
        summary = stack_summary([], [], storage)
        assert summary["flows_in"] == 0
        assert summary["records_in"] == 0
        assert summary["chain_lengths"] == {}
        report = merge_summaries([summary], variant_name="x")
        assert report.flow_records == 0


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
