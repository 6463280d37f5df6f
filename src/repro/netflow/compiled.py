"""Template-specialized compiled decoders for NetFlow v9 / IPFIX data sets.

The per-field test oracles (``repro.reference.decode_v9``/
``decode_ipfix``) run a Python loop over the template for every record:
one slice per field, a dict of named values, then a round of ``pop``
calls into :class:`FlowRecord`. The differential tests compare against
them.

This module is the production decoder. It compiles a template **once, at
registration time**, into

* a single :class:`struct.Struct` covering the whole record (addresses
  and odd-length integers as ``Ns`` byte slots, 1/2/4/8-byte integers as
  ``B/H/I/Q``), so a data FlowSet decodes with one ``iter_unpack`` bulk
  pass instead of a per-field loop; and
* a generated straight-line function specialised to the template's slot
  layout — constant tuple indices, no per-record dict of field names —
  that appends straight into the parallel lists of a :class:`FlowBatch`:
  no ``FlowRecord``, no ``ipaddress`` objects (addresses go packed
  bytes → interned canonical text through a bounded cache).

``FlowBatch.record(i)`` over the generated decoder's output equals the
reference decoder's records field for field (``tests/test_codec_parity
.py``), and a payload the reference rejects — a port wider than 16 bits,
an address field that is not 4 or 16 bytes — raises the same
``ValueError`` here, which the sessions' shared FlowSet walk reports as
:class:`ParseError`. One deliberate deviation, on *statically
degenerate* templates only: a template with no source or no destination
address field can never produce a record, so the compiled decoder
returns an empty batch without touching the payload (the reference walks
it and drops every record).
"""

from __future__ import annotations

import struct
from typing import Callable, FrozenSet, Mapping

from repro.netflow.records import FlowBatch
from repro.util.interning import cached_ip_text, ip_text_probe

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


def _slot_expr(index: int, is_bytes: bool) -> str:
    """Expression for slot ``index`` of the unpacked record tuple."""
    if is_bytes:
        return f'_fb(r[{index}], "big")'
    return f"r[{index}]"


def compile_decoder(
    template,
    field_names: Mapping[int, str],
    src_types: FrozenSet[int],
    dst_types: FrozenSet[int],
    ts_type: int,
    ts_mode: str,
) -> Callable[..., FlowBatch]:
    """Compile ``template`` into a bulk FlowSet → :class:`FlowBatch` decoder.

    ``ts_mode`` selects the timestamp semantics: ``"uptime_ms"`` generates
    ``decode(payload, unix_secs, sys_uptime)`` (NetFlow v9 LAST_SWITCHED
    offsets), ``"absolute_ms"`` generates ``decode(payload, export_secs)``
    (IPFIX flowEndMilliseconds). Both trim trailing FlowSet padding the
    same way the reference loop does (whole records only).
    """
    if ts_mode not in ("uptime_ms", "absolute_ms"):
        raise ValueError(f"unknown ts_mode {ts_mode!r}")

    fmt = ["!"]
    src_idx = dst_idx = ts_idx = -1
    ts_is_bytes = False
    named: dict = {}  # field name -> (index, is_bytes); later fields win
    for i, f in enumerate(template.fields):
        ftype, length = f.field_type, f.length
        is_addr = ftype in src_types or ftype in dst_types
        if is_addr or length not in _INT_CODES:
            fmt.append(f"{length}s")
            is_bytes = True
        else:
            fmt.append(_INT_CODES[length])
            is_bytes = False
        if ftype in src_types:
            src_idx = i
        elif ftype in dst_types:
            dst_idx = i
        elif ftype == ts_type:
            ts_idx, ts_is_bytes = i, is_bytes
        else:
            named[field_names.get(ftype, f"field_{ftype}")] = (i, is_bytes)

    record_struct = struct.Struct("".join(fmt))
    assert record_struct.size == template.record_length
    rec_len = record_struct.size

    if src_idx < 0 or dst_idx < 0 or rec_len == 0:
        # Statically address-less (or empty): no record can ever emerge.
        def decode_nothing(payload, *_ts_args) -> FlowBatch:
            return FlowBatch()

        return decode_nothing

    # ---- generate the per-record body ------------------------------------
    if ts_mode == "uptime_ms":
        signature = "payload, unix_secs, sys_uptime"
        if ts_idx >= 0:
            ts_expr = f"unix_secs + ({_slot_expr(ts_idx, ts_is_bytes)} - sys_uptime) / 1000.0"
        else:
            ts_expr = "unix_secs + 0.0"
        preamble = ""
    else:
        signature = "payload, export_secs"
        if ts_idx >= 0:
            ts_expr = f"{_slot_expr(ts_idx, ts_is_bytes)} / 1000.0"
            preamble = ""
        else:
            ts_expr = "_ts_default"
            preamble = "    _ts_default = float(export_secs)\n"

    guards = []
    core_exprs = {}
    for name, kwarg in _CORE_FIELDS.items():
        slot = named.pop(name, None)
        if slot is None:
            core_exprs[kwarg] = "0"
        elif name in _PORT_FIELDS and (slot[1] or template.fields[slot[0]].length > 2):
            # The only reference-constructor check a wire value can trip.
            var = kwarg
            guards.append(f"        {var} = {_slot_expr(slot[0], slot[1])}")
            guards.append(f"        if {var} > 65535:")
            guards.append('            raise ValueError("ports must fit in 16 bits")')
            core_exprs[kwarg] = var
        else:
            core_exprs[kwarg] = _slot_expr(*slot)

    extra_items = ", ".join(
        f"{name!r}: {_slot_expr(index, is_bytes)}" for name, (index, is_bytes) in named.items()
    )
    guard_block = "\n".join(guards) + "\n" if guards else ""

    # ---- generate the function ---------------------------------------------
    # Appends into parallel lists: no per-record dict unless the template
    # has extra fields, addresses as interned text straight from the
    # packed bytes.
    if named:
        extras_init = "    _ex = []\n    _a_ex = _ex.append\n"
        extras_append = f"        _a_ex({{{extra_items}}})\n"
        extras_ret = "_ex"
    else:
        extras_init = ""
        extras_append = ""
        extras_ret = "None"
    source = (
        f"def _decode({signature}):\n"
        f"{preamble}"
        f"    _ts = []\n    _src = []\n    _dst = []\n    _sp = []\n"
        f"    _dp = []\n    _pr = []\n    _pk = []\n    _by = []\n"
        f"{extras_init}"
        f"    _a_ts = _ts.append\n    _a_src = _src.append\n"
        f"    _a_dst = _dst.append\n    _a_sp = _sp.append\n"
        f"    _a_dp = _dp.append\n    _a_pr = _pr.append\n"
        f"    _a_pk = _pk.append\n    _a_by = _by.append\n"
        f"    for r in _iter_unpack(payload):\n"
        f"{guard_block}"
        f"        _a_ts({ts_expr})\n"
        # The bytes->text cache probe is inlined (one dict .get instead
        # of a Python call per address); misses fall back to the bounded
        # cached_ip_text, which validates, interns, and fills the table.
        f"        _k = r[{src_idx}]\n"
        f"        _v = _tg(_k)\n"
        f"        _a_src(_v if _v is not None else _ip_text(_k))\n"
        f"        _k = r[{dst_idx}]\n"
        f"        _v = _tg(_k)\n"
        f"        _a_dst(_v if _v is not None else _ip_text(_k))\n"
        f"        _a_sp({core_exprs['src_port']})\n"
        f"        _a_dp({core_exprs['dst_port']})\n"
        f"        _a_pr({core_exprs['protocol']})\n"
        f"        _a_pk({core_exprs['packets']})\n"
        f"        _a_by({core_exprs['bytes_']})\n"
        f"{extras_append}"
        f"    return (_ts, _src, _dst, _sp, _dp, _pr, _pk, _by, {extras_ret})\n"
    )

    namespace = {
        "_iter_unpack": record_struct.iter_unpack,
        "_ip_text": cached_ip_text,
        "_tg": ip_text_probe,
        "_fb": int.from_bytes,
    }
    exec(compile(source, f"<compiled-template-{template.template_id}>", "exec"), namespace)
    inner = namespace["_decode"]

    def decode(payload, *ts_args) -> FlowBatch:
        count = len(payload) // rec_len
        if count == 0:
            return FlowBatch()
        end = count * rec_len
        if end != len(payload):
            # memoryview trim: FlowSet padding must not copy the payload
            # (iter_unpack still hands the Ns slots out as bytes).
            payload = memoryview(payload)[:end]
        return FlowBatch(*inner(payload, *ts_args))

    return decode
