"""Per-field NetFlow v5 / v9 / IPFIX decoders, and the test-side writers.

The production decoders are compiled per template and fill FlowBatch
columns (:mod:`repro.netflow.compiled`). These walk each record field
by field into a dict of named values and build one :class:`FlowRecord`
per flow. The v9/IPFIX oracles run on the production session's own set
walk and template table, so header checks and template learning are
shared and only the record decode differs.

The writers have no production caller: :func:`encode_v5` and
:func:`export_v5` feed v5 datagrams to the collector's tests, and
:func:`encode_v9_data` writes one v9 data datagram field by field.
:func:`export_v9`, per-field ``encode_v9_data`` calls, is the oracle of
the production v9 writer (:class:`repro.netflow.export.PackedV9Exporter`).
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.netflow.collector import FlowCollector, probe_version
from repro.netflow.export import (
    _batched,
    _data_set,
    _field_bytes,
    _pack_header,
    encode_v9_template,
)
from repro.netflow.ipfix import FLOW_END_MILLISECONDS, IpfixSession
from repro.netflow.records import FlowRecord
from repro.netflow.v5 import (
    V5_HEADER,
    V5_HEADER_LEN,
    V5_MAX_RECORDS,
    V5_RECORD,
    V5_RECORD_LEN,
    _decode_v5_header,
)
from repro.netflow.v9 import (
    FIELD_NAMES,
    FIRST_SWITCHED,
    IN_BYTES,
    IN_PKTS,
    IPV4_DST_ADDR,
    IPV4_SRC_ADDR,
    IPV6_DST_ADDR,
    IPV6_SRC_ADDR,
    LAST_SWITCHED,
    STANDARD_V4_TEMPLATE,
    STANDARD_V6_TEMPLATE,
    TemplateField,
    TemplateRecord,
    V9Session,
)
from repro.util.errors import ConfigError, ParseError
from repro.util.interning import cached_ip_address


def _uptime_delta(uptime_ms: int, sys_uptime: int) -> int:
    """``uptime_ms - sys_uptime`` as a signed 32-bit value: the uptime
    counter wraps every 2**32 ms (about 49.7 days), so a flow that ended
    just before the wrap is slightly in the past, not weeks ahead."""
    delta = (uptime_ms - sys_uptime) % (1 << 32)
    return delta - (1 << 32) if delta >= (1 << 31) else delta


def decode_v5(datagram: bytes) -> Tuple[dict, List[FlowRecord]]:
    """Decode a v5 datagram → (header dict, flow records).

    Flow timestamps are reconstructed from the header's ``unix_secs``
    anchor and each record's end-uptime offset.
    """
    header, count, sys_uptime, unix_secs = _decode_v5_header(datagram)
    flows: List[FlowRecord] = []
    body = datagram[V5_HEADER_LEN : V5_HEADER_LEN + count * V5_RECORD_LEN]
    for fields in V5_RECORD.iter_unpack(body):
        (src, dst, _nexthop, in_if, out_if, packets, octets, _start, end,
         sport, dport, _pad1, tcp_flags, proto, tos, src_as, dst_as,
         src_mask, dst_mask, _pad2) = fields
        flows.append(
            FlowRecord(
                ts=unix_secs + _uptime_delta(end, sys_uptime) / 1000.0,
                src_ip=cached_ip_address(src),
                dst_ip=cached_ip_address(dst),
                src_port=sport,
                dst_port=dport,
                protocol=proto,
                packets=packets,
                bytes_=octets,
                extra={
                    "input_if": in_if,
                    "output_if": out_if,
                    "tcp_flags": tcp_flags,
                    "tos": tos,
                    "src_as": src_as,
                    "dst_as": dst_as,
                    "src_mask": src_mask,
                    "dst_mask": dst_mask,
                },
            )
        )
    return header, flows


def _decode_records(tmpl: TemplateRecord, payload: bytes, timestamp) -> List[FlowRecord]:
    """Per-field decode of one data set's records.

    ``timestamp(values)`` pops the format's time field out of the named
    values and returns the flow's ``ts``; what remains beyond the core
    fields lands in ``extra``.
    """
    flows: List[FlowRecord] = []
    rec_len = tmpl.record_length
    if rec_len == 0:
        return flows  # zero-field template: nothing to decode, don't spin
    offset = 0
    while offset + rec_len <= len(payload):
        values: Dict[str, int] = {}
        src_ip = dst_ip = None
        for f in tmpl.fields:
            raw = payload[offset : offset + f.length]
            offset += f.length
            if f.field_type in (IPV4_SRC_ADDR, IPV6_SRC_ADDR):
                src_ip = ipaddress.ip_address(raw)
            elif f.field_type in (IPV4_DST_ADDR, IPV6_DST_ADDR):
                dst_ip = ipaddress.ip_address(raw)
            else:
                name = FIELD_NAMES.get(f.field_type, f"field_{f.field_type}")
                values[name] = int.from_bytes(raw, "big")
        if src_ip is None or dst_ip is None:
            continue  # option/record without addresses is useless to FlowDNS
        flows.append(
            FlowRecord(
                ts=timestamp(values),
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=values.pop("src_port", 0),
                dst_port=values.pop("dst_port", 0),
                protocol=values.pop("protocol", 0),
                packets=values.pop("packets", 0),
                bytes_=values.pop("bytes", 0),
                extra=values,
            )
        )
    return flows


def _v9_records(out, tmpl, payload, unix_secs, sys_uptime) -> None:
    def timestamp(values):
        last = values.pop("last_switched", sys_uptime)
        return unix_secs + _uptime_delta(last, sys_uptime) / 1000.0

    out.extend(_decode_records(tmpl, payload, timestamp))


def decode_v9(session: V9Session, datagram: bytes) -> List[FlowRecord]:
    """Decode one v9 datagram per field, learning its templates."""
    flows: List[FlowRecord] = []
    session.decode_into(flows, datagram, _v9_records)
    return flows


_FLOW_END_NAME = FIELD_NAMES.get(FLOW_END_MILLISECONDS, f"field_{FLOW_END_MILLISECONDS}")


def _ipfix_records(out, tmpl, payload, export_secs) -> None:
    def timestamp(values):
        ts_ms = values.pop(_FLOW_END_NAME, None)
        return ts_ms / 1000.0 if ts_ms is not None else float(export_secs)

    out.extend(_decode_records(tmpl, payload, timestamp))


def decode_ipfix(session: IpfixSession, message: bytes) -> List[FlowRecord]:
    """Decode one IPFIX message per field, learning its templates."""
    flows: List[FlowRecord] = []
    session.decode_into(flows, message, _ipfix_records)
    return flows


def ingest(collector: FlowCollector, datagram: bytes) -> List[FlowRecord]:
    """Sniff the version and decode one datagram per field.

    Malformed input and unknown versions are counted on the collector's
    stats, not raised; a pure template datagram returns no flows.
    """
    flows: List[FlowRecord] = []
    skipped = 0
    stats = collector.stats
    try:
        version = probe_version(datagram)
        if version == 5:
            _, flows = decode_v5(datagram)
        elif version == 9:
            skipped = collector.v9.decode_into(flows, datagram, _v9_records)
        elif version == 10:
            skipped = collector.ipfix.decode_into(flows, datagram, _ipfix_records)
        else:
            stats.unknown_version += 1
            return []
    except ParseError:
        stats.malformed += 1
        return []
    stats.datagrams += 1
    stats.flows += len(flows)
    stats.sets_skipped += skipped
    stats.by_version[version] = stats.by_version.get(version, 0) + 1
    return flows


def export_v9(
    flows: Iterable[FlowRecord], batch_size: int = 24, template_refresh: int = 64
) -> Iterator[bytes]:
    """``FlowExporter(version=9).export(flows)``, one field at a time."""
    sequence = 0
    sent_since_template = None  # force template first
    for batch in _batched(flows, batch_size):
        anchor = int(batch[0].ts)
        if sent_since_template is None or sent_since_template >= template_refresh:
            yield encode_v9_template(
                [STANDARD_V4_TEMPLATE, STANDARD_V6_TEMPLATE], unix_secs=anchor,
                sequence=sequence,
            )
            sent_since_template = 0
        v4 = [f for f in batch if f.src_ip.version == 4 and f.dst_ip.version == 4]
        v6 = [f for f in batch if f.src_ip.version == 6 and f.dst_ip.version == 6]
        for template, group in ((STANDARD_V4_TEMPLATE, v4), (STANDARD_V6_TEMPLATE, v6)):
            if group:
                yield encode_v9_data(template, group, unix_secs=anchor, sequence=sequence)
                sequence += len(group)
                sent_since_template += 1


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


def export_v5(flows: Iterable[FlowRecord], batch_size: int = 24) -> List[bytes]:
    """v5 datagrams of ``batch_size`` flows each, sequence numbers counting
    flows, each anchored at its first flow's second."""
    if not 0 < batch_size <= V5_MAX_RECORDS:
        raise ConfigError(f"v5 batches hold 1 to {V5_MAX_RECORDS} records")
    datagrams = []
    sequence = 0
    for batch in _batched(flows, batch_size):
        datagrams.append(encode_v5(batch, unix_secs=int(batch[0].ts), flow_sequence=sequence))
        sequence += len(batch)
    return datagrams


def _v9_field_bytes(flow: FlowRecord, f: TemplateField, unix_secs: int, sys_uptime_ms: int):
    """One v9 field of ``flow``: 32-bit counters, and time fields as
    uptime offsets; the rest as IPFIX writes them."""
    t = f.field_type
    if t == IN_PKTS:
        return struct.pack("!I", flow.packets & 0xFFFFFFFF)
    if t == IN_BYTES:
        return struct.pack("!I", flow.bytes_ & 0xFFFFFFFF)
    if t in (LAST_SWITCHED, FIRST_SWITCHED):
        delta_ms = int((flow.ts - unix_secs) * 1000.0)
        return struct.pack("!I", (sys_uptime_ms + delta_ms) & 0xFFFFFFFF)
    return _field_bytes(flow, f)


def encode_v9_data(
    template: TemplateRecord,
    flows: Iterable[FlowRecord],
    sys_uptime_ms: int = 0,
    unix_secs: int = 0,
    sequence: int = 0,
    source_id: int = 0,
) -> bytes:
    """Encode flows as one v9 data FlowSet against ``template``."""
    count, flowset = _data_set(
        template, flows, lambda flow, f: _v9_field_bytes(flow, f, unix_secs, sys_uptime_ms)
    )
    return _pack_header(count, sys_uptime_ms, unix_secs, sequence, source_id) + flowset
