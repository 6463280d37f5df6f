"""Selective columnar DNS decode: wire payloads straight to column arrays.

The object decode (the ``repro.reference`` DNS filter over
:func:`repro.reference.wire.decode_message`) materialises a ``Header``, a
``DnsMessage``, a ``Question`` per question and a ``ResourceRecord``
per record — then throws almost all of it away, because FillUp
(Section 3.2 step 2) only keeps answer-section A/AAAA/CNAME records of
NOERROR responses. That per-message object churn is why
``dns_decode_msgs_per_sec`` plateaued around 20K while the NetFlow
lane's compiled/columnar path runs an order of magnitude hotter.

:func:`decode_fill_columns` parses *only what FillUp needs*, straight
into a :class:`DnsBatch` — the structure-of-arrays shape
:class:`repro.netflow.records.FlowBatch` established: parallel
``ts``/``name``/``rtype``/``ttl``/``rdata_text`` columns plus
per-message accounting (``messages``/``invalid``/``unknown_records``).
The header is one struct unpack plus flag masks (no ``Header``/enum
construction); non-response, non-NOERROR and unknown-opcode messages
short-circuit before any section walk; question, authority and
additional bodies are *walked by offset arithmetic* — names advance
through the shared per-message name-offset cache, fixed RR headers are
single unpacks — but never produce objects. Only answer-section
A/AAAA/CNAME rows land in the columns. Names are spelled once per call
from their uncompressed wire bytes, through one table the call creates
and drops (no process-wide name table). A/AAAA rdata is appended packed
and spelled once per distinct address of the batch at the end by
:func:`repro.util.interning.ip_text` (the object path's
``str(ip_address)``, written in C and kept in no table), so rows with one
address share one string and map keys equal the reference path's.
Stream records that arrive already decoded enter the same shape through
:meth:`DnsBatch.from_records`, so ``FillUpProcessor.process_columns`` is
the one fill entry.

Parity contract (pinned by ``tests/test_dns_columnar_parity.py``): for
any payload sequence, the rows, stored records and FillUp counters are
identical to running each payload through the ``repro.reference`` DNS
filter (``filter_message``) and filling its records one at a time.
That includes the all-or-nothing message semantics (a ParseError
anywhere rolls back the whole message's rows), the "valid but yields no
storable record → invalid" rule, and the unknown-RR tolerance
(rtype/rclass outside the enums skip-and-count per record instead of
invalidating the message, in both paths).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

from repro.dns.name import NameTable, decode_name
from repro.dns.rr import RClass, RRType
from repro.dns.stream import DnsRecord
from repro.dns.wire import HEADER, QFIXED, RRFIXED, Opcode
from repro.util.errors import ParseError
from repro.util.interning import ip_text

_TYPE_A = int(RRType.A)
_TYPE_NS = int(RRType.NS)
_TYPE_CNAME = int(RRType.CNAME)
_TYPE_PTR = int(RRType.PTR)
_TYPE_MX = int(RRType.MX)
_TYPE_AAAA = int(RRType.AAAA)

#: The enum universes as plain-int frozensets: membership tests on the
#: raw wire values, no enum construction on the hot path.
_KNOWN_TYPES = frozenset(int(t) for t in RRType)
_KNOWN_CLASSES = frozenset(int(c) for c in RClass)
_KNOWN_OPCODES = frozenset(int(o) for o in Opcode)

WirePayload = Union[bytes, bytearray, memoryview]


class DnsBatch:
    """A structure-of-arrays batch of FillUp-ready DNS stream rows.

    Parallel columns (one index = one storable answer record) plus the
    per-message accounting FillUp needs: ``messages`` payloads consumed,
    ``invalid`` of them rejected (unparseable / queries / error rcodes /
    no storable answers), ``unknown_records`` RRs skipped for carrying
    an rtype or rclass outside the enums, and ``skipped`` stream records
    appended that no hashmap holds (neither A/AAAA nor CNAME). ``rtype``
    holds the raw wire integer (1/5/28), never an enum — :meth:`record`
    rehydrates a :class:`DnsRecord` when parity tooling needs the object
    form.
    """

    __slots__ = (
        "ts",
        "name",
        "rtype",
        "ttl",
        "rdata_text",
        "messages",
        "invalid",
        "unknown_records",
        "skipped",
    )

    def __init__(self):
        self.ts: List[float] = []
        self.name: List[str] = []
        self.rtype: List[int] = []
        self.ttl: List[int] = []
        self.rdata_text: List[str] = []
        self.messages: int = 0
        self.invalid: int = 0
        self.unknown_records: int = 0
        self.skipped: int = 0

    @classmethod
    def from_records(cls, records: Iterable[DnsRecord]) -> "DnsBatch":
        batch = cls()
        for record in records:
            batch.append_record(record)
        return batch

    def __len__(self) -> int:
        return len(self.name)

    def append_row(
        self, ts: float, name: str, rtype: int, ttl: int, rdata_text: str
    ) -> None:
        self.ts.append(ts)
        self.name.append(name)
        self.rtype.append(int(rtype))
        self.ttl.append(ttl)
        self.rdata_text.append(rdata_text)

    def append_record(self, record: DnsRecord) -> None:
        """Append one stream record: a row if a hashmap holds its type,
        else one more ``skipped``."""
        if record.is_address or record.is_cname:
            self.append_row(record.ts, record.query, record.rtype, record.ttl, record.answer)
        else:
            self.skipped += 1

    def extend(self, other: "DnsBatch") -> None:
        """Append all of ``other``'s rows and fold its message counters."""
        self.ts.extend(other.ts)
        self.name.extend(other.name)
        self.rtype.extend(other.rtype)
        self.ttl.extend(other.ttl)
        self.rdata_text.extend(other.rdata_text)
        self.messages += other.messages
        self.invalid += other.invalid
        self.unknown_records += other.unknown_records
        self.skipped += other.skipped

    def record(self, index: int) -> DnsRecord:
        """Materialise row ``index`` as the object path's record."""
        return DnsRecord(
            self.ts[index],
            self.name[index],
            RRType(self.rtype[index]),
            self.ttl[index],
            self.rdata_text[index],
        )

    def to_records(self) -> List[DnsRecord]:
        """Materialise every row (parity tooling, never the hot path)."""
        return [self.record(i) for i in range(len(self.name))]


def _decode_answers_into(
    data: WirePayload,
    t: float,
    out_ts: List[float],
    out_name: List[str],
    out_rtype: List[int],
    out_ttl: List[int],
    out_rdata: List[Union[str, bytes]],
    names: NameTable,
):
    """Parse one payload's storable answers into the columns.

    A/AAAA rdata is appended packed; the caller spells it. ``names`` is
    the batch's name table (see :func:`repro.dns.name.decode_name`).

    Returns the message's unknown-RR count, or ``None`` when the message
    is invalid — in which case any rows it contributed are rolled back,
    matching the object path's all-or-nothing ParseError semantics.
    """
    n = len(data)
    if n < 12:
        return None
    _msg_id, flags, qd, an, ns_count, ar_count = HEADER.unpack_from(data, 0)
    # The object path ends with zero records for queries, error rcodes
    # and unknown opcodes (ParseError for the latter) — always exactly
    # one invalid message either way, so short-circuit before walking.
    if (
        not (flags & 0x8000)
        or (flags & 0xF)
        or ((flags >> 11) & 0xF) not in _KNOWN_OPCODES
    ):
        return None
    cache: dict = {}
    cache_get = cache.get
    offset = 12
    try:
        for _ in range(qd):
            _qname, offset = decode_name(data, offset, cache, names)
            if offset + 4 > n:
                return None  # truncated question
            qtype, qclass = QFIXED.unpack_from(data, offset)
            # Questions keep the strict enum filter the object path's
            # _decode_question applies (tolerance is per-RR, not here).
            if qtype not in _KNOWN_TYPES or qclass not in _KNOWN_CLASSES:
                return None
            offset += 4
    except ParseError:
        return None
    start = len(out_name)
    unknown = 0
    known_types = _KNOWN_TYPES
    known_classes = _KNOWN_CLASSES
    unpack_rr = RRFIXED.unpack_from
    ts_append = out_ts.append
    name_append = out_name.append
    rtype_append = out_rtype.append
    ttl_append = out_ttl.append
    rdata_append = out_rdata.append
    try:
        for _ in range(an):
            # Hot-path owner decode: an RR owner is usually one pure
            # compression pointer at a previously-decoded target — one
            # cache probe instead of the full decode_name walk. The
            # output is identical: decode_name would chase the pointer,
            # hit the same cache entry, and take its wire form whole
            # for the same name. Anything else (inline labels, uncached or chained
            # targets, truncation) falls through to decode_name, which
            # also owns every malformation check.
            if offset + 1 < n and data[offset] >= 0xC0:
                hit = cache_get(((data[offset] & 0x3F) << 8) | data[offset + 1])
                if hit is not None:
                    owner = hit[0]
                    offset += 2
                else:
                    owner, offset = decode_name(data, offset, cache, names)
            elif offset < n and data[offset] == 0:
                # Root owner (EDNS OPT rides on "."): one zero byte.
                owner = "."
                offset += 1
            else:
                owner, offset = decode_name(data, offset, cache, names)
            if offset + 10 > n:
                raise ParseError("truncated resource record")
            rt, rc, ttl, rdlength = unpack_rr(data, offset)
            offset += 10
            end = offset + rdlength
            if end > n:
                raise ParseError("RDATA overruns message")
            if rt not in known_types or rc not in known_classes:
                unknown += 1
                offset = end
                continue
            if rt == _TYPE_A:
                if rdlength != 4:
                    raise ParseError(f"A record rdlength {rdlength} != 4")
                ts_append(t)
                name_append(owner)
                rtype_append(_TYPE_A)
                ttl_append(ttl)
                rdata_append(data[offset:end])
            elif rt == _TYPE_CNAME:
                target, _ = decode_name(data, offset, cache, names)
                ts_append(t)
                name_append(owner)
                rtype_append(_TYPE_CNAME)
                ttl_append(ttl)
                rdata_append(target)
            elif rt == _TYPE_AAAA:
                if rdlength != 16:
                    raise ParseError(f"AAAA record rdlength {rdlength} != 16")
                ts_append(t)
                name_append(owner)
                rtype_append(_TYPE_AAAA)
                ttl_append(ttl)
                rdata_append(data[offset:end])
            elif rt == _TYPE_NS or rt == _TYPE_PTR:
                # Name-typed rdata the object path decodes (and can
                # reject): validate, keep nothing.
                decode_name(data, offset, cache, names)
            elif rt == _TYPE_MX:
                if rdlength < 3:
                    raise ParseError("MX record too short")
                decode_name(data, offset + 2, cache, names)
            # Remaining known types (SOA/TXT/SRV/OPT/ANY) carry opaque
            # rdata: bounds already checked, nothing to materialise.
            offset = end
        # Authority + additional: same structural walk (the object path
        # parses them, so their malformations and unknown-RR counts must
        # be observed identically) but no rows ever come out of them.
        for _ in range(ns_count + ar_count):
            if offset + 1 < n and data[offset] >= 0xC0:
                if cache_get(((data[offset] & 0x3F) << 8) | data[offset + 1]) is not None:
                    offset += 2
                else:
                    _owner, offset = decode_name(data, offset, cache, names)
            elif offset < n and data[offset] == 0:
                offset += 1  # root owner, nothing to keep
            else:
                _owner, offset = decode_name(data, offset, cache, names)
            if offset + 10 > n:
                raise ParseError("truncated resource record")
            rt, rc, _ttl, rdlength = unpack_rr(data, offset)
            offset += 10
            end = offset + rdlength
            if end > n:
                raise ParseError("RDATA overruns message")
            if rt not in known_types or rc not in known_classes:
                unknown += 1
            elif rt == _TYPE_A:
                if rdlength != 4:
                    raise ParseError(f"A record rdlength {rdlength} != 4")
            elif rt == _TYPE_AAAA:
                if rdlength != 16:
                    raise ParseError(f"AAAA record rdlength {rdlength} != 16")
            elif rt == _TYPE_CNAME or rt == _TYPE_NS or rt == _TYPE_PTR:
                decode_name(data, offset, cache, names)
            elif rt == _TYPE_MX:
                if rdlength < 3:
                    raise ParseError("MX record too short")
                decode_name(data, offset + 2, cache, names)
            offset = end
    except ParseError:
        if len(out_name) > start:
            del out_ts[start:]
            del out_name[start:]
            del out_rtype[start:]
            del out_ttl[start:]
            del out_rdata[start:]
        return None
    return unknown


def decode_fill_columns(
    payloads: Sequence[WirePayload],
    ts: Union[float, Sequence[float]],
) -> DnsBatch:
    """Batch-decode wire payloads into one FillUp-ready :class:`DnsBatch`.

    ``ts`` is either one timestamp for the whole batch or a sequence
    parallel to ``payloads`` (the engines pass the per-item receive
    timestamps their sources stamped). Invalid payloads — unparseable,
    queries, error rcodes, truncated, or valid responses with no
    storable answer — contribute no rows and count into
    :attr:`DnsBatch.invalid`; unknown-typed RRs skip-and-count into
    :attr:`DnsBatch.unknown_records`, exactly like the object path.
    """
    batch = DnsBatch()
    stamps: Iterable[float]
    if isinstance(ts, (int, float)):
        stamps = [float(ts)] * len(payloads)
    else:
        stamps = ts
    out_ts = batch.ts
    out_name = batch.name
    out_rtype = batch.rtype
    out_ttl = batch.ttl
    out_rdata = batch.rdata_text
    decode_one = _decode_answers_into
    # Names are spelled once per batch from their wire bytes; the table
    # goes with the batch, so no name outlives it here.
    names: NameTable = {}
    messages = 0
    invalid = 0
    unknown_total = 0
    rows = 0
    for payload, t in zip(payloads, stamps):
        messages += 1
        # Normalise to bytes once: indexing and slicing bytes is the
        # fastest of the WirePayload forms, and the A/AAAA rdata slices
        # become direct dict keys without a second copy.
        if type(payload) is not bytes:
            payload = bytes(payload)
        unknown = decode_one(
            payload, t, out_ts, out_name, out_rtype, out_ttl, out_rdata, names
        )
        if unknown is None:
            invalid += 1
            continue
        unknown_total += unknown
        new_rows = len(out_name)
        if new_rows == rows:
            # Decoded fine but yielded nothing FillUp stores — the
            # object path counts that message invalid too.
            invalid += 1
        rows = new_rows
    # Spell each distinct packed A/AAAA rdata once; CNAME targets map to themselves.
    texts = {v: ip_text(v) if type(v) is bytes else v for v in dict.fromkeys(out_rdata)}
    batch.rdata_text = list(map(texts.__getitem__, out_rdata))
    batch.messages = messages
    batch.invalid = invalid
    batch.unknown_records = unknown_total
    return batch
