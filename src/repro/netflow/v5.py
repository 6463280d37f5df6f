"""NetFlow version 5 decode (fixed 48-byte records, RFC-less Cisco spec).

v5 is IPv4-only and templateless: a 24-byte header followed by up to 30
fixed-layout records. The decoder reads every field the format defines;
FlowDNS itself consumes only the subset carried into
:class:`repro.netflow.records.FlowRecord`. No production code writes
v5; the test-side writer is ``repro.reference.encode_v5``.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.netflow.records import FlowBatch
from repro.util.errors import ParseError

V5_HEADER = struct.Struct("!HHIIIIBBH")
V5_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")
V5_HEADER_LEN = V5_HEADER.size  # 24
V5_RECORD_LEN = V5_RECORD.size  # 48
V5_MAX_RECORDS = 30


def _decode_v5_header(datagram: bytes) -> Tuple[dict, int, int, int]:
    """Validate the v5 header; returns (header dict, count, uptime, secs)."""
    if len(datagram) < V5_HEADER_LEN:
        raise ParseError("v5 datagram shorter than header")
    version, count, sys_uptime, unix_secs, _nsecs, sequence, _etype, engine_id, _sampling = (
        V5_HEADER.unpack_from(datagram, 0)
    )
    if version != 5:
        raise ParseError(f"not a v5 datagram (version={version})")
    expected = V5_HEADER_LEN + count * V5_RECORD_LEN
    if len(datagram) < expected:
        raise ParseError(f"v5 datagram truncated: {len(datagram)} < {expected}")
    header = {
        "version": version,
        "count": count,
        "sys_uptime_ms": sys_uptime,
        "unix_secs": unix_secs,
        "flow_sequence": sequence,
        "engine_id": engine_id,
    }
    return header, count, sys_uptime, unix_secs


def decode_v5_into(out: FlowBatch, datagram: bytes) -> dict:
    """Append a v5 datagram's flows to ``out``; returns the header dict.

    Flow timestamps are reconstructed from the header's ``unix_secs``
    anchor and each record's end-uptime offset, the inverse of
    ``encode_v5``; the offset is taken as a signed 32-bit value, so a
    flow that ended just before the uptime counter wrapped lands in the
    past. Addresses are appended as 4-byte packed values, as the
    v9/IPFIX decoders append theirs, and no ``FlowRecord``/``ipaddress``
    objects are built.
    """
    header, count, sys_uptime, unix_secs = _decode_v5_header(datagram)
    if count and out.extras is None:
        out.extras = [None] * len(out.ts)
    ts_col, src_col, dst_col = out.ts, out.src_ip_text, out.dst_ip_text
    sp_col, dp_col, pr_col = out.src_port, out.dst_port, out.protocol
    pk_col, by_col, ex_col = out.packets, out.bytes_, out.extras
    body = datagram[V5_HEADER_LEN : V5_HEADER_LEN + count * V5_RECORD_LEN]
    for fields in V5_RECORD.iter_unpack(body):
        (src, dst, _nexthop, in_if, out_if, packets, octets, _start, end,
         sport, dport, _pad1, tcp_flags, proto, tos, src_as, dst_as,
         src_mask, dst_mask, _pad2) = fields
        delta = (end - sys_uptime + 0x80000000) & 0xFFFFFFFF
        ts_col.append(unix_secs + (delta - 0x80000000) / 1000.0)
        src_col.append(src.to_bytes(4, "big"))
        dst_col.append(dst.to_bytes(4, "big"))
        sp_col.append(sport)
        dp_col.append(dport)
        pr_col.append(proto)
        pk_col.append(packets)
        by_col.append(octets)
        ex_col.append({
            "input_if": in_if,
            "output_if": out_if,
            "tcp_flags": tcp_flags,
            "tos": tos,
            "src_as": src_as,
            "dst_as": dst_as,
            "src_mask": src_mask,
            "dst_mask": dst_mask,
        })
    return header


def decode_v5_columns(datagram: bytes) -> Tuple[dict, FlowBatch]:
    """Decode a v5 datagram → (header dict, columnar flow batch)."""
    batch = FlowBatch(extras=[])
    header = decode_v5_into(batch, datagram)
    batch.addresses_to_text()
    return header, batch
