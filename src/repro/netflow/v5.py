"""NetFlow version 5 wire codec (fixed 48-byte records, RFC-less Cisco spec).

v5 is IPv4-only and templateless: a 24-byte header followed by up to 30
fixed-layout records. The encoder/decoder here round-trips every field the
format defines; FlowDNS itself consumes only the subset carried into
:class:`repro.netflow.records.FlowRecord`.
"""

from __future__ import annotations

import struct
from typing import Iterable, Tuple

from repro.netflow.records import FlowBatch, FlowRecord
from repro.util.errors import ParseError

V5_HEADER = struct.Struct("!HHIIIIBBH")
V5_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")
V5_HEADER_LEN = V5_HEADER.size  # 24
V5_RECORD_LEN = V5_RECORD.size  # 48
V5_MAX_RECORDS = 30


def encode_v5(
    flows: Iterable[FlowRecord],
    sys_uptime_ms: int = 0,
    unix_secs: int = 0,
    flow_sequence: int = 0,
    engine_id: int = 0,
) -> bytes:
    """Encode up to 30 IPv4 flows as one v5 export datagram.

    Flow start/end are expressed as SysUptime offsets; we anchor the export
    at ``unix_secs`` and place each flow's end at its ``ts`` relative to
    that anchor, wrapped to 32 bits (a flow that ended before the uptime
    counter started lands just below the wrap, which the decoder reads
    back as a negative offset).
    """
    flows = list(flows)
    if len(flows) > V5_MAX_RECORDS:
        raise ParseError(f"v5 datagram limited to {V5_MAX_RECORDS} records")
    for f in flows:
        if f.src_ip.version != 4 or f.dst_ip.version != 4:
            raise ParseError("NetFlow v5 carries IPv4 flows only")
    out = bytearray(
        V5_HEADER.pack(
            5,
            len(flows),
            sys_uptime_ms & 0xFFFFFFFF,
            unix_secs & 0xFFFFFFFF,
            0,  # unix_nsecs
            flow_sequence & 0xFFFFFFFF,
            0,  # engine_type
            engine_id & 0xFF,
            0,  # sampling interval
        )
    )
    for f in flows:
        delta_ms = int((f.ts - unix_secs) * 1000.0)
        end_uptime = (sys_uptime_ms + delta_ms) & 0xFFFFFFFF
        start_uptime = end_uptime
        out.extend(
            V5_RECORD.pack(
                int(f.src_ip),
                int(f.dst_ip),
                0,  # nexthop
                f.extra.get("input_if", 0) & 0xFFFF,
                f.extra.get("output_if", 0) & 0xFFFF,
                f.packets & 0xFFFFFFFF,
                f.bytes_ & 0xFFFFFFFF,
                start_uptime,
                end_uptime,
                f.src_port,
                f.dst_port,
                0,  # pad1
                f.extra.get("tcp_flags", 0) & 0xFF,
                f.protocol & 0xFF,
                f.extra.get("tos", 0) & 0xFF,
                f.extra.get("src_as", 0) & 0xFFFF,
                f.extra.get("dst_as", 0) & 0xFFFF,
                f.extra.get("src_mask", 0) & 0xFF,
                f.extra.get("dst_mask", 0) & 0xFF,
                0,  # pad2
            )
        )
    return bytes(out)


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
    :func:`encode_v5`; the offset is taken as a signed 32-bit value, so
    a flow that ended just before the uptime counter wrapped lands in
    the past. Addresses are appended as 4-byte packed values, as the
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
