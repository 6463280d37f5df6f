"""Template-specialized compiled decoders for NetFlow v9 / IPFIX data sets.

The per-field test oracles (``repro.reference.decode_v9``/
``decode_ipfix``) run a Python loop over the template for every record:
one slice per field, a dict of named values, then a round of ``pop``
calls into :class:`FlowRecord`. The differential tests compare against
them.

This module is the production decoder. It compiles a template **once, at
registration time**, into

* a small table of multi-record :class:`struct.Struct` objects, one per
  power of two up to 32 records (addresses and odd-length integers as
  ``Ns`` byte slots, 1/2/4/8-byte integers as ``B/H/I/Q``), so a data
  FlowSet of n records unpacks into one flat value list in at most
  log₂ n pieces — not one tuple per record; and
* a generated straight-line function specialised to the template's slot
  layout that fills each column of the caller's :class:`FlowBatch` with
  one extended slice of that list (``values[i::nfields]``): timestamps
  through one comprehension, addresses as their packed 4- or 16-byte
  values. No ``FlowRecord``, no ``ipaddress`` object and no per-record
  bytecode loop. The caller turns the address columns into text once
  per burst (:meth:`FlowBatch.addresses_to_text`), so a decoder never
  converts the same address twice.

``FlowBatch.record(i)`` over the generated decoder's output equals the
reference decoder's records field for field (``tests/test_codec_parity
.py``), and a payload the reference rejects — a port wider than 16 bits
in any record, an address field that is not 4 or 16 bytes (a template
property, so checked at compile time and raised for any non-empty set)
— raises the same ``ValueError`` here, which the sessions' shared
FlowSet walk reports as :class:`ParseError`. A decoder that raises may already have
appended part of the set; :meth:`FlowCollector.ingest_columns_many`
rolls the whole datagram back. One deliberate deviation, on *statically
degenerate* templates only: a template with no source or no destination
address field can never produce a record, so the compiled decoder
appends nothing without touching the payload (the reference walks it and
drops every record).
"""

from __future__ import annotations

import struct
from typing import Callable, FrozenSet, List, Mapping, Tuple

#: struct codes for the integer widths the format can express directly.
_INT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: FlowRecord keyword slots filled from named template fields; anything
#: else lands in ``extra`` (matching the reference decoders' ``pop`` set).
_CORE_FIELDS = {
    "src_port": "src_port",
    "dst_port": "dst_port",
    "protocol": "protocol",
    "packets": "packets",
    "bytes": "bytes_",
}

#: Core fields whose wire value can exceed the record's own validation
#: range when the template declares them wider than their natural size.
_PORT_FIELDS = ("src_port", "dst_port")

#: The largest multi-record struct covers this many records ...
MAX_PIECE_RECORDS = 32
#: ... and no multi-record struct has more than this many struct codes,
#: so a template's table stays under twice this many codes (or just its
#: one-record struct, for a record with more fields than this).
MAX_PIECE_CODES = 256


def _piece_sizes(field_count: int) -> List[int]:
    """Record counts of a template's multi-record structs, largest first:
    powers of two up to 32 records and :data:`MAX_PIECE_CODES` codes."""
    largest = 1
    while largest < MAX_PIECE_RECORDS and 2 * largest * field_count <= MAX_PIECE_CODES:
        largest *= 2
    sizes = []
    while largest:
        sizes.append(largest)
        largest //= 2
    return sizes


def _column_expr(index: int, is_bytes: bool) -> str:
    """Expression for the column of slot ``index`` in the flat values."""
    column = f"_v[{index}::_NF]"
    if is_bytes:
        return f'[_fb(x, "big") for x in {column}]'
    return column


def compile_decoder(
    template,
    field_names: Mapping[int, str],
    src_types: FrozenSet[int],
    dst_types: FrozenSet[int],
    ts_type: int,
    ts_mode: str,
) -> Callable[..., None]:
    """Compile ``template`` into a bulk FlowSet → :class:`FlowBatch` decoder.

    ``ts_mode`` selects the timestamp semantics: ``"uptime_ms"`` generates
    ``decode(out, payload, unix_secs, sys_uptime)`` (NetFlow v9
    LAST_SWITCHED offsets, their difference to the header's uptime taken
    as a signed 32-bit value so a flow that ended just before the uptime
    counter wrapped lands in the past), ``"absolute_ms"`` generates
    ``decode(out, payload, export_secs)`` (IPFIX flowEndMilliseconds).
    Both append the set's whole records to the batch ``out`` (trailing
    FlowSet padding is ignored, as the reference loop does). The decoder
    carries its struct table as ``decode.structs``.
    """
    if ts_mode not in ("uptime_ms", "absolute_ms"):
        raise ValueError(f"unknown ts_mode {ts_mode!r}")

    codes = []
    src_idx = dst_idx = ts_idx = -1
    ts_is_bytes = False
    named: dict = {}  # field name -> (index, is_bytes); later fields win
    for i, f in enumerate(template.fields):
        ftype, length = f.field_type, f.length
        is_addr = ftype in src_types or ftype in dst_types
        if is_addr or length not in _INT_CODES:
            codes.append(f"{length}s")
            is_bytes = True
        else:
            codes.append(_INT_CODES[length])
            is_bytes = False
        if ftype in src_types:
            src_idx = i
        elif ftype in dst_types:
            dst_idx = i
        elif ftype == ts_type:
            ts_idx, ts_is_bytes = i, is_bytes
        else:
            named[field_names.get(ftype, f"field_{ftype}")] = (i, is_bytes)

    record_code = "".join(codes)
    rec_len = struct.calcsize("!" + record_code)
    assert rec_len == template.record_length

    if src_idx < 0 or dst_idx < 0 or rec_len == 0:
        # Statically address-less (or empty): no record can ever emerge.
        def decode_nothing(out, payload, *_ts_args) -> None:
            return None

        decode_nothing.structs = ()
        return decode_nothing

    widths = {template.fields[src_idx].length, template.fields[dst_idx].length}
    if not widths <= {4, 16}:
        # An address of another width never decodes, whatever the bytes.
        def decode_bad_address(out, payload, *_ts_args) -> None:
            if len(payload) >= rec_len:
                raise ValueError(f"address field widths {sorted(widths)}, not 4 or 16")

        decode_bad_address.structs = ()
        return decode_bad_address

    # ---- the multi-record struct table and its piece plans ---------------
    structs = tuple(struct.Struct("!" + record_code * k) for k in _piece_sizes(len(codes)))
    pieces = tuple((s.unpack_from, s.size) for s in structs)

    def plan_for(count: int) -> Tuple[Tuple[Callable, int], ...]:
        """The ``(unpack_from, offset)`` calls that unpack ``count``
        records, in order."""
        plan = []
        offset = 0
        for unpack_from, size in pieces:
            per_piece = size // rec_len
            while count >= per_piece:
                plan.append((unpack_from, offset))
                offset += size
                count -= per_piece
        return tuple(plan)

    # Every count below two of the largest piece has its plan ready
    # (a few dozen small tuples over the shared structs); larger sets,
    # which a 1500-byte datagram never carries, plan on the fly.
    plans = tuple(plan_for(count) for count in range(2 * (structs[0].size // rec_len)))

    # ---- generate the column fills ---------------------------------------
    if ts_mode == "uptime_ms":
        signature = "out, payload, unix_secs, sys_uptime"
        if ts_idx >= 0:
            # The uptime offset as a signed 32-bit value: a no-op within
            # 2**31 ms (24.8 days) of the header's uptime. ``unix_secs``
            # as a float adds the same bits as the reference's int.
            lines = [
                f"    _col = {_column_expr(ts_idx, ts_is_bytes)}",
                "    _secs = float(unix_secs)",
                "    out.ts.extend([_secs + (((x - sys_uptime + 0x80000000) & 0xFFFFFFFF)"
                " - 0x80000000) / 1000.0 for x in _col])",
            ]
        else:
            lines = ["    out.ts.extend([unix_secs + 0.0] * _n)"]
    else:
        signature = "out, payload, export_secs"
        if ts_idx >= 0:
            ts_fill = f"[x / 1000.0 for x in {_column_expr(ts_idx, ts_is_bytes)}]"
        else:
            ts_fill = "[float(export_secs)] * _n"
        lines = [f"    out.ts.extend({ts_fill})"]

    for column, index in (("src_ip_text", src_idx), ("dst_ip_text", dst_idx)):
        lines.append(f"    out.{column}.extend(_v[{index}::_NF])")
    for name, kwarg in _CORE_FIELDS.items():
        slot = named.pop(name, None)
        if slot is None:
            lines.append(f"    out.{kwarg}.extend([0] * _n)")
        elif name in _PORT_FIELDS and (slot[1] or template.fields[slot[0]].length > 2):
            # The only reference-constructor check a wire value can trip.
            lines += [
                f"    _col = {_column_expr(*slot)}",
                "    if max(_col) > 65535:",
                '        raise ValueError("ports must fit in 16 bits")',
                f"    out.{kwarg}.extend(_col)",
            ]
        else:
            lines.append(f"    out.{kwarg}.extend({_column_expr(*slot)})")

    if named:
        # One dict per record for the fields FlowRecord has no slot for.
        names = list(named)
        targets = ", ".join(f"_x{j}" for j in range(len(names)))
        items = ", ".join(
            f"{name!r}: " + (f'_fb(_x{j}, "big")' if named[name][1] else f"_x{j}")
            for j, name in enumerate(names)
        )
        if len(names) == 1:
            source_iter = f"_v[{named[names[0]][0]}::_NF]"
        else:
            source_iter = "zip(" + ", ".join(f"_v[{named[name][0]}::_NF]" for name in names) + ")"
        lines += [
            f"    _ex = [{{{items}}} for {targets} in {source_iter}]",
            "    if out.extras is None:",
            "        out.extras = [None] * (len(out.ts) - _n) + _ex",
            "    else:",
            "        out.extras.extend(_ex)",
        ]
    else:
        lines += [
            "    if out.extras is not None:",
            "        out.extras.extend([None] * _n)",
        ]

    source = "\n".join(
        [
            f"def _decode({signature}):",
            f"    _n = len(payload) // {rec_len}",
            "    if not _n:",
            "        return",
            f"    _plan = _plans[_n] if _n < {len(plans)} else _plan_for(_n)",
            "    if len(_plan) == 1:",
            "        _v = _plan[0][0](payload)",
            "    else:",
            "        _v = []",
            "        for _unpack_from, _offset in _plan:",
            "            _v += _unpack_from(payload, _offset)",
            *lines,
            "",
        ]
    )
    namespace = {
        "_NF": len(codes),
        "_plans": plans,
        "_plan_for": plan_for,
        "_fb": int.from_bytes,
    }
    exec(compile(source, f"<compiled-template-{template.template_id}>", "exec"), namespace)
    decode = namespace["_decode"]
    decode.structs = structs
    return decode
