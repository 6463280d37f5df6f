"""Tests for the reference DNS object codec (repro.reference.wire)."""

import ipaddress

import pytest

from repro.dns.rr import RClass, RRType
from repro.reference import (
    DnsMessage,
    Header,
    Question,
    Rcode,
    ResourceRecord,
    a_record,
    aaaa_record,
    cname_record,
    decode_message,
    encode_message,
)
from repro.dns.wire import Opcode
from repro.util.errors import ParseError


def _response(answers, questions=None):
    msg = DnsMessage()
    msg.questions = questions or [Question("example.com", RRType.A)]
    msg.answers = answers
    return msg


class TestResourceRecord:
    def test_a_record_coerces_address(self):
        rr = a_record("host.example", "1.2.3.4", 60)
        assert isinstance(rr.rdata, ipaddress.IPv4Address)

    def test_aaaa_record_coerces_address(self):
        rr = aaaa_record("host.example", "2001:db8::1", 60)
        assert isinstance(rr.rdata, ipaddress.IPv6Address)

    def test_cname_normalizes_target(self):
        rr = cname_record("A.Example.COM", "CDN.Example.NET.", 300)
        assert rr.name == "a.example.com"
        assert rr.rdata == "cdn.example.net"

    def test_negative_ttl_rejected(self):
        with pytest.raises(ParseError):
            a_record("x.example", "1.2.3.4", -1)

    def test_is_address_and_is_cname(self):
        assert a_record("x.example", "1.2.3.4", 1).is_address
        assert cname_record("x.example", "y.example", 1).is_cname
        assert not cname_record("x.example", "y.example", 1).is_address

    def test_rdata_text(self):
        assert a_record("x.example", "1.2.3.4", 1).rdata_text() == "1.2.3.4"
        raw = ResourceRecord("x.example", RRType.TXT, RClass.IN, 1, b"\x01\x02")
        assert raw.rdata_text() == "0102"


class TestHeaderFlags:
    def test_flags_round_trip(self):
        header = Header(msg_id=0x1234, qr=True, aa=True, tc=False, rd=True,
                        ra=True, rcode=Rcode.NXDOMAIN)
        word = header.flags_word()
        back = Header.from_flags_word(0x1234, word)
        assert back == header

    def test_query_vs_response_bit(self):
        assert Header(qr=False).flags_word() & 0x8000 == 0
        assert Header(qr=True).flags_word() & 0x8000 == 0x8000

    def test_opcode_encoded(self):
        header = Header(opcode=Opcode.UPDATE)
        assert Header.from_flags_word(0, header.flags_word()).opcode == Opcode.UPDATE


class TestMessageRoundTrip:
    def test_single_a_answer(self):
        msg = _response([a_record("example.com", "93.184.216.34", 300)])
        decoded = decode_message(encode_message(msg))
        assert len(decoded.answers) == 1
        assert str(decoded.answers[0].rdata) == "93.184.216.34"
        assert decoded.answers[0].ttl == 300

    def test_cdn_chain_message(self):
        msg = _response(
            [
                cname_record("www.svc.com", "svc.r0.cdn.net", 3600),
                cname_record("svc.r0.cdn.net", "e-svc.edge.cdn.net", 1800),
                a_record("e-svc.edge.cdn.net", "198.51.100.7", 60),
            ],
            questions=[Question("www.svc.com", RRType.A)],
        )
        decoded = decode_message(encode_message(msg))
        assert [rr.rtype for rr in decoded.answers] == [RRType.CNAME, RRType.CNAME, RRType.A]
        assert decoded.answers[1].rdata == "e-svc.edge.cdn.net"

    def test_aaaa_answer(self):
        msg = _response([aaaa_record("v6.example.com", "2001:db8::2:1", 120)])
        decoded = decode_message(encode_message(msg))
        assert str(decoded.answers[0].rdata) == "2001:db8::2:1"

    def test_multiple_answers_same_owner(self):
        msg = _response(
            [a_record("lb.example.com", f"10.0.0.{i}", 60) for i in range(1, 5)]
        )
        decoded = decode_message(encode_message(msg))
        assert len(decoded.answers) == 4
        assert {str(rr.rdata) for rr in decoded.answers} == {
            "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4",
        }

    def test_compression_shrinks_output(self):
        answers = [a_record("host.deep.example.com", f"10.0.1.{i}", 60) for i in range(1, 9)]
        msg = _response(answers, questions=[Question("host.deep.example.com", RRType.A)])
        wire = encode_message(msg)
        # Uncompressed the owner name alone is 22 bytes × 9 occurrences.
        uncompressed_estimate = 12 + 9 * (22 + 4) + 8 * (10 + 4)
        assert len(wire) < uncompressed_estimate

    def test_empty_message_round_trip(self):
        decoded = decode_message(encode_message(DnsMessage()))
        assert decoded.questions == []
        assert decoded.answers == []

    def test_authority_and_additional_sections(self):
        msg = DnsMessage()
        msg.authorities.append(
            ResourceRecord("example.com", RRType.NS, RClass.IN, 3600, "ns1.example.com")
        )
        msg.additionals.append(a_record("ns1.example.com", "192.0.2.53", 3600))
        decoded = decode_message(encode_message(msg))
        assert decoded.authorities[0].rdata == "ns1.example.com"
        assert str(decoded.additionals[0].rdata) == "192.0.2.53"

    def test_mx_record_round_trip(self):
        msg = _response(
            [ResourceRecord("example.com", RRType.MX, RClass.IN, 600, (10, "mail.example.com"))]
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.answers[0].rdata == (10, "mail.example.com")

    def test_txt_record_round_trip(self):
        msg = _response(
            [ResourceRecord("example.com", RRType.TXT, RClass.IN, 60, b"\x07v=spf1\x20")]
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.answers[0].rdata == b"\x07v=spf1\x20"


class TestDecodeErrors:
    def test_short_message(self):
        with pytest.raises(ParseError):
            decode_message(b"\x00\x01")

    def test_truncated_question(self):
        msg = _response([a_record("example.com", "1.1.1.1", 60)])
        wire = encode_message(msg)
        with pytest.raises(ParseError):
            decode_message(wire[:14])

    def test_truncated_answer_rdata(self):
        msg = _response([a_record("example.com", "1.1.1.1", 60)])
        wire = encode_message(msg)
        with pytest.raises(ParseError):
            decode_message(wire[:-2])

    def test_a_record_wrong_rdlength(self):
        msg = _response([a_record("example.com", "1.1.1.1", 60)])
        wire = bytearray(encode_message(msg))
        wire[-5] = 3  # corrupt RDLENGTH (4 → 3)
        with pytest.raises(ParseError):
            decode_message(bytes(wire[:-1]))
