"""Tests for repro.dns.name (RFC 1035 name codec)."""

import pytest

from repro.dns.name import (
    NameCompressor,
    decode_name,
    encode_name,
    normalize_name,
)
from repro.dns.rr import RRType
from repro.reference import DnsMessage, Question, a_record, decode_message, encode_message
from repro.util.errors import ParseError

#: Four labels whose uncompressed wire form is exactly 255 octets
#: (63 + 63 + 63 + 61 label bytes, four length bytes, the root byte).
NAME_255 = ".".join(["a" * 63, "b" * 63, "c" * 63, "d" * 61])
NAME_256 = NAME_255 + "d"


class TestNormalizeName:
    def test_lowercases(self):
        assert normalize_name("WWW.Example.COM") == "www.example.com"

    def test_strips_trailing_dot(self):
        assert normalize_name("example.com.") == "example.com"

    def test_root_stays_root(self):
        assert normalize_name(".") == "."
        assert normalize_name("") == "."

    def test_strips_whitespace(self):
        assert normalize_name("  a.b  ") == "a.b"


class TestEncodeName:
    def test_simple_name(self):
        assert encode_name("ab.c") == b"\x02ab\x01c\x00"

    def test_root(self):
        assert encode_name(".") == b"\x00"

    def test_label_too_long_raises(self):
        with pytest.raises(ParseError):
            encode_name("a" * 64 + ".com")

    def test_63_byte_label_ok(self):
        wire = encode_name("a" * 63 + ".com")
        assert wire[0] == 63

    def test_name_too_long_raises(self):
        name = ".".join(["a" * 60] * 5)  # 305 bytes encoded
        with pytest.raises(ParseError):
            encode_name(name)

    def test_empty_interior_label_raises(self):
        with pytest.raises(ParseError):
            encode_name("a..b")


class TestDecodeName:
    def test_round_trip(self):
        for name in ("example.com", "a.b.c.d.e", "x.y", "."):
            wire = encode_name(name)
            decoded, offset = decode_name(wire, 0)
            assert decoded == normalize_name(name)
            assert offset == len(wire)

    def test_preserves_case_insensitivity(self):
        decoded, _ = decode_name(encode_name("WWW.EXAMPLE.COM"), 0)
        assert decoded == "www.example.com"

    def test_pointer_followed(self):
        # "example.com" at 0, then a name "www" + pointer to 0.
        base = encode_name("example.com")
        buf = base + b"\x03www" + bytes([0xC0, 0x00])
        decoded, offset = decode_name(buf, len(base))
        assert decoded == "www.example.com"
        assert offset == len(buf)

    def test_pointer_loop_raises(self):
        # pointer at 2 → 0, label at 0 followed by pointer back to 0.
        buf = b"\x01a" + bytes([0xC0, 0x00])
        # offset 0: label 'a' then pointer to 0 → loop over itself
        with pytest.raises(ParseError):
            decode_name(buf, 0)

    def test_forward_pointer_raises(self):
        buf = bytes([0xC0, 0x04, 0, 0, 0])
        with pytest.raises(ParseError):
            decode_name(buf, 0)

    def test_truncated_label_raises(self):
        with pytest.raises(ParseError):
            decode_name(b"\x05ab", 0)

    def test_truncated_pointer_raises(self):
        with pytest.raises(ParseError):
            decode_name(bytes([0xC0]), 0)

    def test_reserved_label_type_raises(self):
        with pytest.raises(ParseError):
            decode_name(bytes([0x80, 0x01]), 0)

    def test_missing_terminator_raises(self):
        with pytest.raises(ParseError):
            decode_name(b"\x01a", 0)


class TestNameCompressor:
    def test_first_occurrence_uncompressed(self):
        comp = NameCompressor()
        wire = comp.encode("a.example.com", 0)
        assert wire == encode_name("a.example.com")

    def test_second_occurrence_is_pointer(self):
        comp = NameCompressor()
        first = comp.encode("example.com", 0)
        second = comp.encode("example.com", len(first))
        assert len(second) == 2
        assert second[0] & 0xC0 == 0xC0

    def test_suffix_sharing(self):
        comp = NameCompressor()
        first = comp.encode("example.com", 0)
        www = comp.encode("www.example.com", len(first))
        # 'www' label (4 bytes) + 2-byte pointer
        assert len(www) == 6

    def test_pointer_round_trips_through_decoder(self):
        comp = NameCompressor()
        buf = bytearray()
        buf += comp.encode("cdn.example.net", 0)
        second_start = len(buf)
        buf += comp.encode("edge.cdn.example.net", second_start)
        name, _ = decode_name(bytes(buf), second_start)
        assert name == "edge.cdn.example.net"

    def test_255_octet_name_round_trips(self):
        assert len(encode_name(NAME_255)) == 255
        msg = DnsMessage()
        msg.questions.append(Question(NAME_255, RRType.A))
        msg.answers.append(a_record(NAME_255, "192.0.2.1", 60))
        decoded = decode_message(encode_message(msg))
        assert decoded.questions[0].qname == NAME_255
        assert decoded.answers[0].name == NAME_255

    def test_256_octet_name_refused_at_encode(self):
        """The limit is the uncompressed length: a name the decoder would
        reject as "decoded name exceeds 255 bytes" is not written, even
        where a pointer would make its wire form short."""
        with pytest.raises(ParseError, match="255"):
            encode_name(NAME_256)
        with pytest.raises(ParseError, match="255"):
            NameCompressor().encode(NAME_256, 0)
        comp = NameCompressor()
        suffix = NAME_256.split(".", 1)[1]
        comp.encode(suffix, 0)
        with pytest.raises(ParseError, match="255"):
            comp.encode(NAME_256, 200)
        msg = DnsMessage()
        msg.questions.append(Question(NAME_256, RRType.A))
        with pytest.raises(ParseError, match="255"):
            encode_message(msg)
