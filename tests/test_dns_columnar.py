"""Unit tests for the columnar DNS fill lane's building blocks.

:class:`repro.dns.columnar.DnsBatch` container semantics,
``DnsStorage.add_many_columns`` edge cases (empty batch, all-invalid
batch, exact-TTL store routing, eviction caps), and the unknown-RR
tolerance PR 9 added to the object decoder (skip-and-count instead of
ParseError for rtype/rclass outside the enums — structural bounds
violations still raise).
"""

import pytest

from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch, decode_fill_columns
from repro.dns.rr import RClass, RRType
from repro.reference import (
    DnsMessage,
    Header,
    Question,
    ResourceRecord,
    decode_message,
    encode_message,
)
from repro.dns.stream import DnsRecord
from repro.util.errors import ParseError


def _response(name="svc.example", answers=(), additionals=()):
    return DnsMessage(
        questions=[Question(name, RRType.A, RClass.IN)],
        answers=list(answers),
        additionals=list(additionals),
    )


def _a(owner, ip_bytes, ttl=300):
    return ResourceRecord(owner, RRType.A, RClass.IN, ttl, ip_bytes)


class TestDnsBatch:
    def test_append_and_rehydrate(self):
        batch = DnsBatch()
        assert len(batch) == 0
        batch.append_row(10.0, "a.example", int(RRType.A), 60, "192.0.2.1")
        batch.append_row(11.0, "b.example", int(RRType.CNAME), 90, "a.example")
        assert len(batch) == 2
        rec = batch.record(1)
        assert rec == DnsRecord(11.0, "b.example", RRType.CNAME, 90, "a.example")
        assert batch.to_records() == [batch.record(0), batch.record(1)]

    def test_extend_folds_rows_and_counters(self):
        a = DnsBatch.from_records([DnsRecord(1.0, "x.example", RRType.TXT, 5, "t")])
        a.messages, a.invalid, a.unknown_records = 1, 1, 0
        b = DnsBatch()
        b.append_row(2.0, "y.example", int(RRType.A), 5, "192.0.2.8")
        b.messages, b.invalid, b.unknown_records, b.skipped = 4, 2, 5, 2
        a.extend(b)
        assert (a.messages, a.invalid, a.unknown_records, a.skipped) == (5, 3, 5, 3)
        assert len(a) == 1 and a.record(0) == b.record(0)

    def test_scalar_and_sequence_timestamps(self):
        wire = encode_message(_response(answers=[_a("svc.example", b"\n\x00\x00\x01")]))
        scalar = decode_fill_columns([wire, wire], 50.0)
        assert scalar.ts == [50.0, 50.0]
        spread = decode_fill_columns([wire, wire], [50.0, 51.0])
        assert spread.ts == [50.0, 51.0]

    def test_equal_rdata_shares_one_string(self):
        """Each distinct address of a batch is spelled once: rows that
        carry it, in one message or across messages, share the string."""
        first = encode_message(_response(answers=[
            _a("a.example", b"\n\x00\x00\x01"), _a("a.example", b"\n\x00\x00\x01"),
        ]))
        second = encode_message(_response(answers=[_a("b.example", b"\n\x00\x00\x01")]))
        batch = decode_fill_columns([first, second], 1.0)
        assert batch.rdata_text == ["10.0.0.1"] * 3
        assert batch.rdata_text[0] is batch.rdata_text[1] is batch.rdata_text[2]

    def test_empty_payloads(self):
        batch = decode_fill_columns([], 1.0)
        assert len(batch) == 0
        assert (batch.messages, batch.invalid, batch.unknown_records) == (0, 0, 0)


class TestAddManyColumns:
    def test_empty_batch_is_a_noop(self):
        storage = DnsStorage(FlowDNSConfig())
        storage.add_many_columns(DnsBatch())
        assert storage.total_entries() == 0

    def test_all_invalid_batch_stores_nothing_but_counts(self):
        payloads = [b"", b"\x00\x01", b"garbage"]
        batch = decode_fill_columns(payloads, 1.0)
        assert len(batch) == 0
        assert batch.invalid == batch.messages == len(payloads)
        storage = DnsStorage(FlowDNSConfig())
        processor = FillUpProcessor(storage)
        processor.process_columns(batch)
        assert storage.total_entries() == 0
        assert processor.stats.raw_messages == 3
        assert processor.stats.invalid == 3
        assert processor.stats.records_stored == 0

    def test_exact_ttl_store_routing(self):
        storage = DnsStorage(FlowDNSConfig(exact_ttl=True))
        batch = DnsBatch()
        batch.append_row(100.0, "svc.example", int(RRType.A), 10, "10.1.1.1")
        batch.append_row(100.0, "www.example", int(RRType.CNAME), 10, "svc.example")
        storage.add_many_columns(batch)
        # Inside the TTL both maps answer; past it the exact store
        # expires. The CNAME map is the reverse mapping (answer → query):
        # looking up the chain *target* yields the name that pointed at it.
        assert storage.lookup_ip("10.1.1.1", 105.0) == "svc.example"
        assert storage.lookup_cname("svc.example", 105.0) == "www.example"
        assert storage.lookup_ip("10.1.1.1", 111.0) is None
        assert storage.lookup_cname("svc.example", 111.0) is None

    def test_rotating_store_routing(self):
        storage = DnsStorage(FlowDNSConfig())
        batch = DnsBatch()
        batch.append_row(100.0, "svc.example", int(RRType.AAAA), 300, "2001:db8::7")
        batch.append_row(100.0, "www.example", int(RRType.CNAME), 300, "svc.example")
        storage.add_many_columns(batch)
        assert storage.lookup_ip("2001:db8::7", 101.0) == "svc.example"
        assert storage.lookup_cname("svc.example", 101.0) == "www.example"

    def test_eviction_counters_under_entry_cap(self):
        cap = 8
        storage = DnsStorage(FlowDNSConfig(max_entries_per_map=cap))
        batch = DnsBatch()
        for i in range(200):
            batch.append_row(float(i), f"svc{i}.example", int(RRType.A),
                             300, f"10.2.{i // 250}.{i % 250 + 1}")
        storage.add_many_columns(batch)
        evicted = storage.evictions()
        assert evicted > 0
        # The bound holds per constituent map, so the total stays well
        # under the un-capped 200 and eviction accounting balances.
        total = storage.total_entries()
        assert total < 200
        assert total + evicted == 200


class TestUnknownRRTolerance:
    def test_unknown_rtype_skips_and_counts(self):
        msg = _response(
            answers=[
                _a("svc.example", b"\n\x00\x00\x01"),
                ResourceRecord("svc.example", 65, RClass.IN, 60, b"\x00\x01"),
                _a("svc.example", b"\n\x00\x00\x02"),
            ]
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.unknown_records == 1
        assert [str(rr.rdata) for rr in decoded.answers] == [
            "10.0.0.1", "10.0.0.2"
        ]

    def test_unknown_rclass_skips_and_counts(self):
        opt = ResourceRecord(".", RRType.OPT, 4096, 0, b"")
        decoded = decode_message(encode_message(_response(additionals=[opt])))
        assert decoded.unknown_records == 1
        assert decoded.additionals == []

    def test_unknown_rr_overrunning_rdata_still_raises(self):
        wire = encode_message(
            _response(answers=[
                ResourceRecord("svc.example", 65, RClass.IN, 60, b"abcdef")
            ])
        )
        with pytest.raises(ParseError):
            decode_message(wire[:-3])  # rdlength now overruns the message

    def test_tolerance_counted_only_for_noerror_responses(self):
        unknown = ResourceRecord("svc.example", 65, RClass.IN, 60, b"\x00")
        query = DnsMessage(header=Header(qr=False),
                           questions=[Question("svc.example", RRType.A)],
                           answers=[unknown])
        refused = DnsMessage(header=Header(rcode=3),
                             questions=[Question("svc.example", RRType.A)],
                             answers=[unknown])
        processor = FillUpProcessor(DnsStorage(FlowDNSConfig()))
        for msg in (query, refused):
            batch = decode_fill_columns((encode_message(msg),), 1.0)
            assert processor.process_columns(batch) == 0
        assert processor.stats.records_unknown_type == 0
        assert processor.stats.invalid == 2

    def test_columnar_counts_match_object_counts(self):
        wire = encode_message(
            _response(
                answers=[
                    _a("svc.example", b"\n\x00\x00\x03"),
                    ResourceRecord("svc.example", 65, RClass.IN, 60, b"\x00"),
                ],
                additionals=[ResourceRecord(".", RRType.OPT, 4096, 0, b"")],
            )
        )
        batch = decode_fill_columns([wire], 1.0)
        assert batch.unknown_records == 2
        assert batch.invalid == 0
        assert len(batch) == 1
        decoded = decode_message(wire)
        assert decoded.unknown_records == 2
