"""Tests for FillUpProcessor and LookUpProcessor (Algorithms 1 and 2)."""

import pytest

from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import LookUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch, decode_fill_columns
from repro.dns.rr import RRType, a_record, cname_record
from repro.dns.stream import DnsRecord
from repro.dns.wire import DnsMessage, Header, Question, encode_message
from repro.netflow.records import FlowBatch, FlowDirection, FlowRecord
from repro.reference import filter_message


@pytest.fixture()
def storage():
    return DnsStorage(FlowDNSConfig())


@pytest.fixture()
def fillup(storage):
    return FillUpProcessor(storage)


@pytest.fixture()
def lookup(storage):
    return LookUpProcessor(storage, FlowDNSConfig())


def _correlate(lookup, flow):
    """One flow through the production lookup entry."""
    return lookup.correlate_batch_columns(FlowBatch.from_records([flow])).results()[0]


def _fill(fillup, *records):
    """Records through the production fill entry; returns how many stored."""
    return fillup.process_columns(DnsBatch.from_records(records))


def _fill_chain(fillup, ts=0.0):
    """service.com -> r0 -> edge, edge A 10.5.5.5"""
    records = [
        DnsRecord(ts, "service.com", RRType.CNAME, 600, "r0.cdn.net"),
        DnsRecord(ts, "r0.cdn.net", RRType.CNAME, 600, "edge.cdn.net"),
        DnsRecord(ts, "edge.cdn.net", RRType.A, 60, "10.5.5.5"),
    ]
    _fill(fillup, *records)


def _filter(fillup, ts, wire):
    """One wire payload through the production decode + fill; returns
    the rows it stored."""
    batch = decode_fill_columns((wire,), ts)
    fillup.process_columns(batch)
    return batch.to_records()


class TestFillUpFilter:
    def test_valid_response_bytes_accepted(self, fillup):
        msg = DnsMessage()
        msg.questions.append(Question("a.example", RRType.A))
        msg.answers.append(a_record("a.example", "10.1.1.1", 60))
        records = _filter(fillup, 5.0, encode_message(msg))
        assert len(records) == 1
        assert records[0].answer == "10.1.1.1"

    def test_garbage_bytes_counted_invalid(self, fillup):
        assert _filter(fillup, 0.0, b"\xff" * 30) == []
        assert fillup.stats.invalid == 1

    def test_query_message_filtered(self, fillup):
        msg = DnsMessage(header=Header(qr=False))
        msg.questions.append(Question("a.example", RRType.A))
        assert _filter(fillup, 0.0, encode_message(msg)) == []
        assert fillup.stats.invalid == 1

    def test_message_object_accepted(self, fillup):
        """The reference filter also takes an already-decoded message."""
        msg = DnsMessage()
        msg.answers.append(cname_record("a.example", "b.example", 60))
        records = filter_message(fillup, 1.0, msg)
        assert records[0].is_cname


class TestFillUpProcess:
    def test_address_record_stored(self, fillup, storage):
        _fill(fillup, DnsRecord(0.0, "a.example", RRType.A, 60, "10.1.1.1"))
        assert storage.lookup_ip("10.1.1.1", now=0.0) == "a.example"
        assert fillup.stats.records_stored == 1

    def test_cname_record_stored(self, fillup, storage):
        _fill(fillup, DnsRecord(0.0, "a.example", RRType.CNAME, 600, "edge.cdn.net"))
        assert storage.lookup_cname("edge.cdn.net", now=0.0) == "a.example"

    def test_other_types_skipped(self, fillup):
        stored = _fill(fillup, DnsRecord(0.0, "a.example", RRType.NS, 600, "ns.example")) == 1
        assert stored is False
        assert fillup.stats.records_skipped == 1

    def test_process_many(self, fillup):
        records = [
            DnsRecord(0.0, f"a{i}.example", RRType.A, 60, f"10.0.0.{i + 1}")
            for i in range(5)
        ]
        assert _fill(fillup, *records) == 5
        assert fillup.stats.records_stored == 5


class TestLookUp:
    def test_unmatched_ip_gives_null_result(self, lookup):
        flow = FlowRecord(ts=0.0, src_ip="9.9.9.9", dst_ip="100.64.0.1", bytes_=100)
        result = _correlate(lookup, flow)
        assert not result.matched
        assert result.service is None
        assert lookup.stats.unmatched == 1

    def test_direct_a_record_match(self, fillup, lookup):
        _fill(fillup, DnsRecord(0.0, "site.example", RRType.A, 60, "10.1.1.1"))
        flow = FlowRecord(ts=1.0, src_ip="10.1.1.1", dst_ip="100.64.0.1", bytes_=500)
        result = _correlate(lookup, flow)
        assert result.matched
        assert result.chain == ("site.example",)
        assert result.service == "site.example"

    def test_cname_chain_unrolled_to_service(self, fillup, lookup):
        _fill_chain(fillup)
        flow = FlowRecord(ts=1.0, src_ip="10.5.5.5", dst_ip="100.64.0.1", bytes_=900)
        result = _correlate(lookup, flow)
        assert result.matched
        assert result.chain == ("edge.cdn.net", "r0.cdn.net", "service.com")
        assert result.service == "service.com"
        assert result.dns_name == "edge.cdn.net"

    def test_bytes_accounting(self, fillup, lookup):
        _fill_chain(fillup)
        _correlate(lookup, FlowRecord(ts=1.0, src_ip="10.5.5.5", dst_ip="100.64.0.1",
                                      bytes_=700))
        _correlate(lookup, FlowRecord(ts=1.0, src_ip="8.8.8.8", dst_ip="100.64.0.1",
                                      bytes_=300))
        assert lookup.stats.bytes_in == 1000
        assert lookup.stats.bytes_matched == 700
        assert abs(lookup.stats.correlation_rate - 0.7) < 1e-9

    def test_loop_limit_respected(self, storage, fillup):
        # A CNAME chain longer than the limit.
        config = FlowDNSConfig(cname_loop_limit=3)
        lookup = LookUpProcessor(storage, config)
        names = [f"n{i}.example" for i in range(10)]
        _fill(fillup, DnsRecord(0.0, names[0], RRType.A, 60, "10.2.2.2"))
        for i in range(len(names) - 1):
            _fill(fillup, DnsRecord(0.0, names[i + 1], RRType.CNAME, 600, names[i]))
        result = _correlate(
            lookup, FlowRecord(ts=1.0, src_ip="10.2.2.2", dst_ip="100.64.0.1", bytes_=1)
        )
        # chain = A owner + at most 3 CNAME steps
        assert len(result.chain) == 4
        assert lookup.stats.loop_limit_hits == 1

    def test_cname_cycle_defused(self, storage, fillup, lookup):
        _fill(fillup, DnsRecord(0.0, "x.example", RRType.A, 60, "10.3.3.3"))
        _fill(fillup, DnsRecord(0.0, "y.example", RRType.CNAME, 600, "x.example"))
        _fill(fillup, DnsRecord(0.0, "x.example", RRType.CNAME, 600, "y.example"))
        result = _correlate(
            lookup, FlowRecord(ts=1.0, src_ip="10.3.3.3", dst_ip="100.64.0.1", bytes_=1)
        )
        assert result.matched  # terminates despite the poisoned loop
        assert len(result.chain) <= 3

    def test_chain_memoized_for_later_use(self, storage, fillup, lookup):
        """Step 7: multi-hop results are added to NAME-CNAME active."""
        _fill_chain(fillup)
        _correlate(lookup, FlowRecord(ts=1.0, src_ip="10.5.5.5", dst_ip="100.64.0.1", bytes_=1))
        assert lookup.stats.chains_memoized == 1
        assert storage.lookup_cname("edge.cdn.net", now=1.0) in ("r0.cdn.net", "service.com")

    def test_memoization_can_be_disabled(self, storage, fillup):
        config = FlowDNSConfig(memoize_cname_chains=False)
        lookup = LookUpProcessor(storage, config)
        _fill_chain(fillup)
        _correlate(lookup, FlowRecord(ts=1.0, src_ip="10.5.5.5", dst_ip="100.64.0.1", bytes_=1))
        assert lookup.stats.chains_memoized == 0

    def test_chain_length_histogram(self, fillup, lookup):
        _fill_chain(fillup)
        _fill(fillup, DnsRecord(0.0, "plain.example", RRType.A, 60, "10.7.7.7"))
        _correlate(lookup, FlowRecord(ts=1.0, src_ip="10.5.5.5", dst_ip="100.64.0.1", bytes_=1))
        _correlate(lookup, FlowRecord(ts=1.0, src_ip="10.7.7.7", dst_ip="100.64.0.1", bytes_=1))
        assert lookup.stats.chain_lengths == {3: 1, 1: 1}


class TestDirection:
    def test_destination_lookup(self, fillup, storage):
        config = FlowDNSConfig(direction=FlowDirection.DESTINATION)
        lookup = LookUpProcessor(storage, config)
        _fill(fillup, DnsRecord(0.0, "site.example", RRType.A, 60, "10.1.1.1"))
        flow = FlowRecord(ts=1.0, src_ip="100.64.0.1", dst_ip="10.1.1.1", bytes_=10)
        assert _correlate(lookup, flow).matched

    def test_both_falls_back_to_destination(self, fillup, storage):
        config = FlowDNSConfig(direction=FlowDirection.BOTH)
        lookup = LookUpProcessor(storage, config)
        _fill(fillup, DnsRecord(0.0, "site.example", RRType.A, 60, "10.1.1.1"))
        flow = FlowRecord(ts=1.0, src_ip="100.64.0.1", dst_ip="10.1.1.1", bytes_=10)
        result = _correlate(lookup, flow)
        assert result.matched and result.service == "site.example"
