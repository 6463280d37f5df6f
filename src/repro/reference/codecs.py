"""Per-field NetFlow v5 / v9 / IPFIX decoders, and the per-field v9 exporter.

The production decoders are compiled per template and fill FlowBatch
columns (:mod:`repro.netflow.compiled`). These walk each record field
by field into a dict of named values and build one :class:`FlowRecord`
per flow. The v9/IPFIX oracles run on the production session's own set
walk and template table, so header checks and template learning are
shared and only the record decode differs. :func:`export_v9` is the v9
writer's oracle, per-field ``encode_v9_data`` calls.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.netflow.collector import FlowCollector, probe_version
from repro.netflow.export import _batched, encode_v9_data, encode_v9_template
from repro.netflow.ipfix import FLOW_END_MILLISECONDS, IpfixSession
from repro.netflow.records import FlowRecord
from repro.netflow.v5 import V5_HEADER_LEN, V5_RECORD, V5_RECORD_LEN, _decode_v5_header
from repro.netflow.v9 import (
    FIELD_NAMES,
    IPV4_DST_ADDR,
    IPV4_SRC_ADDR,
    IPV6_DST_ADDR,
    IPV6_SRC_ADDR,
    STANDARD_V4_TEMPLATE,
    STANDARD_V6_TEMPLATE,
    TemplateRecord,
    V9Session,
)
from repro.util.errors import ParseError
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
