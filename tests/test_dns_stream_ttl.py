"""Tests for repro.dns.stream, repro.dns.ttl and the reference DNS filter's
message flattening."""

import pytest

from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord, is_address_type
from repro.dns.ttl import (
    CANONICAL_TTL_TICKS,
    address_fraction_below,
    combined_fraction_below,
    summarize_ttls,
)
from repro.reference import (
    DnsMessage,
    Header,
    Question,
    Rcode,
    a_record,
    cname_record,
    records_from_message,
)


class TestDnsRecord:
    def test_normalizes_query(self):
        rec = DnsRecord(1.0, "WWW.Example.COM", RRType.A, 60, "1.2.3.4")
        assert rec.query == "www.example.com"

    def test_cname_answer_normalized(self):
        rec = DnsRecord(1.0, "a.example", RRType.CNAME, 60, "CDN.Example.NET")
        assert rec.answer == "cdn.example.net"

    def test_a_answer_left_verbatim(self):
        rec = DnsRecord(1.0, "a.example", RRType.A, 60, "1.2.3.4")
        assert rec.answer == "1.2.3.4"

    def test_is_address_flags(self):
        assert DnsRecord(0, "q", RRType.A, 1, "1.1.1.1").is_address
        assert DnsRecord(0, "q", RRType.AAAA, 1, "::1").is_address
        assert DnsRecord(0, "q", RRType.CNAME, 1, "t").is_cname

    def test_is_address_type(self):
        assert is_address_type(RRType.A) and is_address_type(RRType.AAAA)
        assert not is_address_type(RRType.CNAME)


class TestRecordsFromMessage:
    def _chain_message(self):
        msg = DnsMessage()
        msg.questions.append(Question("www.svc.com", RRType.A))
        msg.answers = [
            cname_record("www.svc.com", "edge.cdn.net", 300),
            a_record("edge.cdn.net", "10.9.9.9", 60),
        ]
        return msg

    def test_flattens_per_answer(self):
        records = records_from_message(5.0, self._chain_message())
        assert len(records) == 2
        cname, a = records
        assert cname.is_cname and cname.query == "www.svc.com" and cname.answer == "edge.cdn.net"
        assert a.is_address and a.query == "edge.cdn.net" and a.answer == "10.9.9.9"
        assert all(r.ts == 5.0 for r in records)

    def test_query_message_filtered(self):
        msg = self._chain_message()
        msg.header = Header(qr=False)
        assert records_from_message(0.0, msg) == []

    def test_error_rcode_filtered(self):
        msg = self._chain_message()
        msg.header = Header(qr=True, rcode=Rcode.NXDOMAIN)
        assert records_from_message(0.0, msg) == []

    def test_empty_answers_filtered(self):
        msg = DnsMessage()
        msg.questions.append(Question("x.example", RRType.A))
        assert records_from_message(0.0, msg) == []


class TestTtlSummary:
    def _records(self):
        out = []
        for i, ttl in enumerate([60, 120, 300, 600, 3600]):
            out.append(DnsRecord(float(i), f"a{i}.example", RRType.A, ttl, f"10.0.0.{i}"))
        for i, ttl in enumerate([300, 1800, 7200]):
            out.append(DnsRecord(float(i), f"c{i}.example", RRType.CNAME, ttl, f"t{i}.example"))
        return out

    def test_counts_per_type(self):
        summary = summarize_ttls(self._records())
        assert summary.counts[RRType.A] == 5
        assert summary.counts[RRType.CNAME] == 3

    def test_fraction_below(self):
        summary = summarize_ttls(self._records())
        assert summary.fraction_below(RRType.A, 300) == 3 / 5
        assert summary.fraction_below(RRType.CNAME, 300) == 1 / 3
        assert summary.fraction_below(RRType.AAAA, 1e9) == 0.0

    def test_quantile(self):
        summary = summarize_ttls(self._records())
        assert summary.quantile(RRType.A, 1.0) == 3600

    def test_quantile_missing_type_raises(self):
        summary = summarize_ttls(self._records())
        with pytest.raises(KeyError):
            summary.quantile(RRType.AAAA, 0.5)

    def test_tick_table_shape(self):
        summary = summarize_ttls(self._records())
        table = summary.tick_table()
        assert len(table[RRType.A]) == len(CANONICAL_TTL_TICKS)
        # ECDF is monotone along the ticks
        assert table[RRType.A] == sorted(table[RRType.A])

    def test_suggest_clear_up_interval(self):
        summary = summarize_ttls(self._records())
        assert summary.suggest_clear_up_interval(RRType.A, 0.99) == 3600

    def test_address_fraction_merges_a_and_aaaa(self):
        records = self._records() + [
            DnsRecord(0.0, "v6.example", RRType.AAAA, 60, "2001:db8::1")
        ]
        summary = summarize_ttls(records)
        # 4 of 6 address records ≤ 300
        assert abs(address_fraction_below(summary, 300) - 4 / 6) < 1e-9

    def test_combined_fraction_weighted_by_counts(self):
        summary = summarize_ttls(self._records())
        combined = combined_fraction_below(summary, 300)
        assert abs(combined - (3 + 1) / 8) < 1e-9

    def test_summary_of_no_records(self):
        summary = summarize_ttls([])
        assert summary.counts == {}
        assert combined_fraction_below(summary, 100) == 0.0
