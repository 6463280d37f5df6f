"""RFC 1035 domain-name encoding and decoding.

Names on the wire are sequences of length-prefixed labels terminated by a
zero-length root label, optionally ending in a compression pointer
(RFC 1035 §4.1.4). The decoder only follows pointers that point strictly
backwards, so malicious or corrupt messages with pointer loops raise
:class:`ParseError` instead of spinning.

The decoder works over ``bytes`` or ``memoryview`` alike (so a whole
message can be parsed without intermediate copies) and takes an optional
per-message offset cache, so a compression-pointer chain is chased once
per message rather than once per referring record. A caller that decodes
many messages (the columnar decoder, one batch at a time) also passes a
table keyed by each name's uncompressed wire bytes: a name seen earlier
in the batch is one slice and one probe, and a new one is spelled once,
in one pass over its bytes. The table is the caller's, so nothing about
names outlives the batch that decoded them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.util.errors import ParseError

WireData = Union[bytes, bytearray, memoryview]

#: Per-message name cache: start offset -> (name, next_offset, wire).
#: ``wire`` is the name's uncompressed wire form, root byte included: its
#: length keeps the 255-byte limit exact when a pointer splices it under
#: new head labels, and the combined wire form is spelled and normalised
#: once, the way the uncached path does.
NameCache = Dict[int, Tuple[str, int, bytes]]

#: Per-batch spelling table: uncompressed wire form -> name.
NameTable = Dict[bytes, str]

MAX_NAME_WIRE_LENGTH = 255
MAX_LABEL_LENGTH = 63
_POINTER_MASK = 0xC0


def normalize_name(name: str) -> str:
    """Canonical form: lowercase, no trailing dot (root stays ``.``)."""
    name = name.strip()
    if name in ("", "."):
        return "."
    return name.rstrip(".").lower()


def encode_name(name: str) -> bytes:
    """Encode a presentation-format name to uncompressed wire format.

    Raises :class:`ParseError` if any label exceeds 63 bytes or the encoded
    name exceeds 255 bytes, per RFC 1035 §2.3.4. Note that *syntactic*
    character rules (LDH) are deliberately not enforced here: FlowDNS must
    transport malformed names (Section 5 measures their traffic), so the
    codec only enforces structural limits the wire format itself imposes.
    """
    norm = normalize_name(name)
    if norm == ".":
        return b"\x00"
    out = bytearray()
    for raw in norm.encode("utf-8", errors="surrogateescape").split(b"."):
        length = len(raw)
        if length == 0:
            raise ParseError(f"empty label in name {name!r}")
        if length > MAX_LABEL_LENGTH:
            raise ParseError(f"label exceeds 63 bytes in name {name!r}")
        out.append(length)
        out += raw
    out.append(0)
    if len(out) > MAX_NAME_WIRE_LENGTH:
        raise ParseError(f"encoded name exceeds 255 bytes: {name!r}")
    return bytes(out)


def _spell(wire: bytes) -> Optional[str]:
    """The name ``wire`` spells if it is exactly one pointer-free
    uncompressed name of at most 255 bytes, root byte included; else None.

    One pass over one copy of the bytes checks each length byte and makes
    it a dot; the labels then decode and normalise together.
    """
    end = len(wire) - 1
    if end >= MAX_NAME_WIRE_LENGTH:
        return None
    text = bytearray(wire)
    pos = 0
    while pos < end:
        length = text[pos]
        if length >= 0x40:
            return None
        text[pos] = 0x2E
        pos += length + 1
    if pos != end:
        return None
    return normalize_name(text[1:end].decode("utf-8", "surrogateescape"))


def decode_name(
    data: WireData,
    offset: int,
    cache: Optional[NameCache] = None,
    names: Optional[NameTable] = None,
) -> Tuple[str, int]:
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns ``(name, next_offset)`` where ``next_offset`` is the offset just
    past the name *in the original stream* (i.e. past the pointer if the
    name was compressed).

    ``data`` may be ``bytes`` or a ``memoryview`` over the message.
    ``cache``, when given, memoises decoded names by start offset for the
    lifetime of one message: a pointer landing on a previously decoded
    name's offset splices the cached suffix instead of re-chasing the
    chain, and the 255-byte wire limit stays exact because the cache
    carries each name's uncompressed wire form.

    ``names``, when given (``data`` must then be ``bytes``), spells each
    distinct uncompressed wire form once for as long as the caller keeps
    the table. The bytes from ``offset`` to the next zero byte are tried
    first: every key is a complete name with no pointer in it, so a hit
    is that name, and a miss that is one whole pointer-free name is
    spelled from those bytes. Anything else (a pointer, a zero byte
    inside a label, a malformation) walks as below.

    The walk always ends. A pointer must target a strictly lower offset
    (anything else is a forward pointer), so a run of pointers only
    descends; the only way back up is a label, and labels spend the
    255-byte budget. A loop therefore runs out of budget after at most
    127 labels and is rejected as an oversized name.
    """
    if cache is not None:
        hit = cache.get(offset)
        if hit is not None:
            return hit[0], hit[1]
    if names is not None:
        wire = data[offset : data.find(0, offset) + 1]
        name = names.get(wire)
        if name is None:
            name = _spell(wire)
            if name is not None:
                names[wire] = name
        if name is not None:
            next_offset = offset + len(wire)
            if cache is not None:
                cache[offset] = (name, next_offset, wire)
            return name, next_offset
    # The uncompressed wire form, collected as the contiguous label runs
    # the walk crosses (empty runs skipped: a pointer hop reads two bytes
    # and nothing more) plus a cached tail's wire form.
    runs: List[WireData] = []
    run_start = pos = offset
    next_offset = -1
    wire_budget = 0
    data_len = len(data)
    while True:
        if pos >= data_len:
            raise ParseError("truncated name")
        length = data[pos]
        if length < 0x40:
            if length == 0:
                if next_offset < 0:
                    next_offset = pos + 1
                runs.append(data[run_start : pos + 1])
                break
            end = pos + 1 + length
            if end > data_len:
                raise ParseError("truncated label")
            wire_budget += 1 + length
            if wire_budget + 1 > MAX_NAME_WIRE_LENGTH:
                raise ParseError("decoded name exceeds 255 bytes")
            pos = end
            continue
        if length < _POINTER_MASK:
            raise ParseError(f"reserved label type 0x{length & _POINTER_MASK:02x}")
        if pos + 1 >= data_len:
            raise ParseError("truncated compression pointer")
        target = ((length & 0x3F) << 8) | data[pos + 1]
        if next_offset < 0:
            next_offset = pos + 2
        if target >= pos:
            raise ParseError("forward compression pointer")
        if pos > run_start:
            runs.append(data[run_start:pos])
        if cache is not None:
            tail = cache.get(target)
            if tail is not None:
                # The tail's wire form includes the root byte; the total
                # must still fit 255.
                wire_budget += len(tail[2]) - 1
                if wire_budget + 1 > MAX_NAME_WIRE_LENGTH:
                    raise ParseError("decoded name exceeds 255 bytes")
                runs.append(tail[2])
                break
        pos = run_start = target
    wire = b"".join(runs)
    name = None if names is None else names.get(wire)
    if name is None:
        name = _spell(wire)
        if names is not None:
            names[wire] = name
    if cache is not None:
        cache[offset] = (name, next_offset, wire)
    return name, next_offset


class NameCompressor:
    """Tracks previously written names to emit RFC 1035 compression pointers.

    A name is written label by label until one of its suffixes has been
    written before; that suffix becomes a 2-byte pointer. Every suffix
    written below offset 0x4000 is remembered; pointers cannot reach
    further, so names beyond that are written uncompressed (the same
    rule real encoders follow).

    :meth:`encode` is one pass over the name's one UTF-8 encoding: each
    suffix is a slice of it, and suffixes are remembered by those bytes
    (equal bytes are equal wire labels, which is all a pointer needs).
    One compressor serves one message, so its table is bounded by the
    message.
    """

    def __init__(self) -> None:
        self._offsets: Dict[bytes, int] = {}

    def encode(self, name: str, current_offset: int) -> bytes:
        """Wire form of ``name`` written at ``current_offset``.

        Raises :class:`ParseError` for an empty label, a label over 63
        bytes, or a name whose *uncompressed* encoding exceeds 255 bytes
        (RFC 1035 §2.3.4, the limit :func:`encode_name` and
        :func:`decode_name` enforce), even when a pointer would shorten it.
        """
        norm = normalize_name(name)
        if norm == ".":
            return b"\x00"
        raw = norm.encode("utf-8", errors="surrogateescape")
        end = len(raw)
        # Labels, one length byte each (the dots' places) and the root byte.
        if end + 2 > MAX_NAME_WIRE_LENGTH:
            raise ParseError(f"encoded name exceeds 255 bytes: {name!r}")
        offsets = self._offsets
        out = bytearray()
        pos = 0  # start of the current suffix; also len(out)
        while True:
            suffix = raw[pos:]
            known = offsets.get(suffix)
            if known is not None:
                out.append(_POINTER_MASK | (known >> 8))
                out.append(known & 0xFF)
                return bytes(out)
            here = current_offset + pos
            if here < 0x4000:
                offsets[suffix] = here
            dot = raw.find(b".", pos)
            if dot < 0:
                dot = end
            length = dot - pos
            if not 1 <= length <= MAX_LABEL_LENGTH:
                raise ParseError(f"bad label length in {name!r}")
            out.append(length)
            out += raw[pos:dot]
            if dot == end:
                out.append(0)
                return bytes(out)
            pos = dot + 1
