"""The general DNS object codec (RFC 1035 §4): test-side writer and decode oracle.

Production writes DNS with :func:`repro.dns.wire.encode_response` and
decodes it with :mod:`repro.dns.columnar`; the parity suites hold both to
:func:`encode_message`/:func:`decode_message` here, and tests use this
codec to build what the one writer does not (queries, error rcodes,
authority and additional sections, other record types).
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Tuple, Union

from repro.dns.name import (
    NameCache,
    NameCompressor,
    WireData,
    decode_name,
    encode_name,
    normalize_name,
)
from repro.dns.rr import RClass, RRType
from repro.dns.wire import HEADER, QFIXED, RRFIXED, Opcode
from repro.util.errors import ParseError
from repro.util.interning import cached_ip_address


class Rcode(IntEnum):
    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass(frozen=True)
class ResourceRecord:
    """One decoded resource record.

    ``rdata`` is typed per RR type: an :mod:`ipaddress` address for A/AAAA,
    a normalized domain-name string for CNAME/NS/PTR, raw ``bytes`` for
    anything else. TTL is seconds remaining as reported by the resolver.
    """

    name: str
    rtype: RRType
    rclass: RClass
    ttl: int
    rdata: Union[str, bytes, ipaddress.IPv4Address, ipaddress.IPv6Address]

    def __post_init__(self):
        if self.ttl < 0:
            raise ParseError(f"negative TTL on {self.name!r}")
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.rtype == RRType.A and not isinstance(self.rdata, ipaddress.IPv4Address):
            object.__setattr__(self, "rdata", ipaddress.IPv4Address(self.rdata))
        elif self.rtype == RRType.AAAA and not isinstance(self.rdata, ipaddress.IPv6Address):
            object.__setattr__(self, "rdata", ipaddress.IPv6Address(self.rdata))
        elif self.rtype in _NAME_RDATA_TYPES and isinstance(self.rdata, str):
            object.__setattr__(self, "rdata", normalize_name(self.rdata))

    @property
    def is_address(self) -> bool:
        return self.rtype in (RRType.A, RRType.AAAA)

    @property
    def is_cname(self) -> bool:
        return self.rtype == RRType.CNAME

    def rdata_text(self) -> str:
        """Presentation form of the rdata (for output files / reports)."""
        if isinstance(self.rdata, bytes):
            return self.rdata.hex()
        return str(self.rdata)


_NAME_RDATA_TYPES = {RRType.CNAME, RRType.NS, RRType.PTR}


def a_record(name: str, address: str, ttl: int) -> ResourceRecord:
    """Convenience constructor for an IN A record."""
    return ResourceRecord(name, RRType.A, RClass.IN, ttl, ipaddress.IPv4Address(address))


def aaaa_record(name: str, address: str, ttl: int) -> ResourceRecord:
    """Convenience constructor for an IN AAAA record."""
    return ResourceRecord(name, RRType.AAAA, RClass.IN, ttl, ipaddress.IPv6Address(address))


def cname_record(name: str, target: str, ttl: int) -> ResourceRecord:
    """Convenience constructor for an IN CNAME record."""
    return ResourceRecord(name, RRType.CNAME, RClass.IN, ttl, normalize_name(target))


def decode_rdata(
    rtype: RRType,
    data: WireData,
    offset: int,
    rdlength: int,
    cache: Optional[NameCache] = None,
):
    """Decode the RDATA section of one record from a full message buffer.

    Needs the whole message (not just the RDATA slice) because name-typed
    RDATA may contain compression pointers into earlier parts. ``data``
    may be bytes or a memoryview; ``cache`` is the message's shared name
    cache (see :func:`repro.dns.name.decode_name`).
    """
    end = offset + rdlength
    if end > len(data):
        raise ParseError("RDATA overruns message")
    if rtype == RRType.A:
        if rdlength != 4:
            raise ParseError(f"A record rdlength {rdlength} != 4")
        return cached_ip_address(bytes(data[offset:end]))
    if rtype == RRType.AAAA:
        if rdlength != 16:
            raise ParseError(f"AAAA record rdlength {rdlength} != 16")
        return cached_ip_address(bytes(data[offset:end]))
    if rtype in _NAME_RDATA_TYPES:
        name, _ = decode_name(data, offset, cache)
        return name
    if rtype == RRType.MX:
        if rdlength < 3:
            raise ParseError("MX record too short")
        pref = struct.unpack_from("!H", data, offset)[0]
        exchange, _ = decode_name(data, offset + 2, cache)
        return (pref, exchange)
    return bytes(data[offset:end])


@dataclass
class Header:
    """DNS header: 16-bit id plus the flag word, section counts derived."""

    msg_id: int = 0
    qr: bool = True  # FlowDNS only ever sees responses
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = True
    rcode: Rcode = Rcode.NOERROR

    def flags_word(self) -> int:
        return (
            self.qr << 15 | (int(self.opcode) & 0xF) << 11 | self.aa << 10 | self.tc << 9
            | self.rd << 8 | self.ra << 7 | int(self.rcode) & 0xF
        )

    @classmethod
    def from_flags_word(cls, msg_id: int, word: int) -> "Header":
        try:
            opcode = Opcode((word >> 11) & 0xF)
        except ValueError as exc:
            raise ParseError(f"unknown opcode {(word >> 11) & 0xF}") from exc
        try:
            rcode = Rcode(word & 0xF)
        except ValueError as exc:
            raise ParseError(f"unknown rcode {word & 0xF}") from exc
        return cls(
            msg_id=msg_id,
            qr=bool(word & 0x8000),
            opcode=opcode,
            aa=bool(word & 0x0400),
            tc=bool(word & 0x0200),
            rd=bool(word & 0x0100),
            ra=bool(word & 0x0080),
            rcode=rcode,
        )


@dataclass(frozen=True)
class Question:
    """One entry of the question section."""

    qname: str
    qtype: RRType
    qclass: RClass = RClass.IN

    def __post_init__(self):
        object.__setattr__(self, "qname", normalize_name(self.qname))


@dataclass
class DnsMessage:
    """A decoded (or to-be-encoded) DNS message."""

    header: Header = field(default_factory=Header)
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)
    #: Records skipped during decode for carrying an rtype or rclass
    #: outside the enums (SVCB/HTTPS/EDNS-class OPT in real resolver
    #: traffic). Skip-and-count, never ParseError: one exotic record
    #: must not discard the A/CNAME answers riding in the same message.
    unknown_records: int = 0


def _encode_rr(rr: ResourceRecord, compressor: NameCompressor, offset: int) -> bytes:
    out = bytearray(compressor.encode(rr.name, offset))
    rdata = _encode_rdata(rr)
    out.extend(RRFIXED.pack(int(rr.rtype), int(rr.rclass), rr.ttl, len(rdata)))
    out.extend(rdata)
    return bytes(out)


def _encode_rdata(rr: ResourceRecord) -> bytes:
    if rr.rtype in (RRType.A, RRType.AAAA):
        return rr.rdata.packed
    if isinstance(rr.rdata, str):
        # Name-typed rdata. We do not compress inside RDATA: RFC 3597
        # forbids compression for unknown types and modern encoders avoid
        # it for CNAME as well for middlebox safety.
        return encode_name(rr.rdata)
    if isinstance(rr.rdata, tuple) and rr.rtype == RRType.MX:
        pref, exchange = rr.rdata
        return struct.pack("!H", pref) + encode_name(exchange)
    if isinstance(rr.rdata, bytes):
        return rr.rdata
    raise ParseError(f"cannot encode rdata of type {type(rr.rdata).__name__}")


def encode_message(msg: DnsMessage) -> bytes:
    """Serialize a message to wire format with name compression."""
    out = bytearray(
        HEADER.pack(
            msg.header.msg_id & 0xFFFF,
            msg.header.flags_word(),
            len(msg.questions),
            len(msg.answers),
            len(msg.authorities),
            len(msg.additionals),
        )
    )
    compressor = NameCompressor()
    for q in msg.questions:
        out.extend(compressor.encode(q.qname, len(out)))
        out.extend(QFIXED.pack(int(q.qtype), int(q.qclass)))
    for section in (msg.answers, msg.authorities, msg.additionals):
        for rr in section:
            out.extend(_encode_rr(rr, compressor, len(out)))
    return bytes(out)


def _decode_question(
    data: WireData, offset: int, cache: Optional[NameCache]
) -> Tuple[Question, int]:
    qname, offset = decode_name(data, offset, cache)
    if offset + QFIXED.size > len(data):
        raise ParseError("truncated question")
    qtype_raw, qclass_raw = QFIXED.unpack_from(data, offset)
    try:
        qtype = RRType(qtype_raw)
        qclass = RClass(qclass_raw)
    except ValueError as exc:
        raise ParseError(f"unknown qtype/qclass {qtype_raw}/{qclass_raw}") from exc
    return Question(qname, qtype, qclass), offset + QFIXED.size


def _decode_rr(
    data: WireData, offset: int, cache: Optional[NameCache]
) -> Tuple[Optional[ResourceRecord], int]:
    """Decode one RR; ``(None, next_offset)`` for unknown rtype/rclass.

    Real resolver traffic carries OPT (EDNS puts the UDP size in the
    class field), SVCB/HTTPS and other types outside the enums alongside
    the A/CNAME answers FillUp wants — those records skip by rdlength
    (and count into :attr:`DnsMessage.unknown_records`) instead of
    invalidating the whole message. The structural bounds checks still
    apply: a skipped record whose rdlength overruns the message is
    corruption, not exotica.
    """
    name, offset = decode_name(data, offset, cache)
    if offset + RRFIXED.size > len(data):
        raise ParseError("truncated resource record")
    rtype_raw, rclass_raw, ttl, rdlength = RRFIXED.unpack_from(data, offset)
    offset += RRFIXED.size
    if offset + rdlength > len(data):
        raise ParseError("RDATA overruns message")
    try:
        rtype = RRType(rtype_raw)
        rclass = RClass(rclass_raw)
    except ValueError:
        return None, offset + rdlength
    rdata = decode_rdata(rtype, data, offset, rdlength, cache)
    return ResourceRecord(name, rtype, rclass, ttl, rdata), offset + rdlength


def decode_message(data: WireData) -> DnsMessage:
    """Parse a wire-format DNS message; raises ParseError on corruption.

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview`` — the
    decoder reads through one memoryview without copying section slices,
    and one per-message name-offset cache means a compression chain is
    chased once however many records point into it.
    """
    if len(data) < HEADER.size:
        raise ParseError("message shorter than header")
    buf = data if isinstance(data, memoryview) else memoryview(data)
    msg_id, flags, qd, an, ns, ar = HEADER.unpack_from(buf, 0)
    header = Header.from_flags_word(msg_id, flags)
    msg = DnsMessage(header=header)
    cache: NameCache = {}
    offset = HEADER.size
    for _ in range(qd):
        question, offset = _decode_question(buf, offset, cache)
        msg.questions.append(question)
    for count, section in ((an, msg.answers), (ns, msg.authorities), (ar, msg.additionals)):
        for _ in range(count):
            rr, offset = _decode_rr(buf, offset, cache)
            if rr is None:
                msg.unknown_records += 1
            else:
                section.append(rr)
    return msg
