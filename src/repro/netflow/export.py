"""Flow export: flow records to NetFlow v9 and IPFIX datagrams.

The collector modules (``v5``, ``v9``, ``ipfix``) only decode; every
production writer is here. :class:`PackedV9Exporter` is the one v9
writer, and :class:`FlowExporter` converts :class:`FlowRecord` objects
onto it. The v5 writer and the per-field v9 data writer have no
production caller; they are test-side, in :mod:`repro.reference`.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.netflow.ipfix import (
    FLOW_END_MILLISECONDS,
    IPFIX_HEADER,
    IPFIX_V4_TEMPLATE,
    IPFIX_VERSION,
    TEMPLATE_SET_ID,
)
from repro.netflow.records import FlowRecord
from repro.netflow.v9 import (
    FIELD_NAMES,
    IN_BYTES,
    IN_PKTS,
    IPV4_DST_ADDR,
    IPV4_SRC_ADDR,
    IPV6_DST_ADDR,
    IPV6_SRC_ADDR,
    L4_DST_PORT,
    L4_SRC_PORT,
    PROTOCOL,
    SET_HEADER,
    STANDARD_V4_TEMPLATE,
    STANDARD_V6_TEMPLATE,
    V9_HEADER,
    TemplateField,
    TemplateRecord,
)
from repro.util.errors import ConfigError, ParseError

_M32 = 0xFFFFFFFF

_PAIR = struct.Struct("!HH")


def _padded_set(set_id: int, body: bytes) -> bytes:
    """One (Flow)Set: its header, ``body``, and zero padding to a 4-byte
    boundary (RFC 3954 §5.3)."""
    padding = (-(4 + len(body))) % 4
    return SET_HEADER.pack(set_id, 4 + len(body) + padding) + body + b"\x00" * padding


def _template_set(set_id: int, templates: Iterable[TemplateRecord]) -> bytes:
    body = b"".join(
        _PAIR.pack(t.template_id, len(t.fields))
        + b"".join(_PAIR.pack(f.field_type, f.length) for f in t.fields)
        for t in templates
    )
    return _padded_set(set_id, body)


def _data_set(template: TemplateRecord, flows: Iterable[FlowRecord], field_bytes):
    """``(record count, data set)`` of ``flows`` against ``template``,
    each field written by ``field_bytes(flow, field)``."""
    body = bytearray()
    count = 0
    for flow in flows:
        for f in template.fields:
            chunk = field_bytes(flow, f)
            if len(chunk) != f.length:
                raise ParseError(
                    f"field {f.field_type} produced {len(chunk)} bytes, template says {f.length}"
                )
            body.extend(chunk)
        count += 1
    return count, _padded_set(template.template_id, bytes(body))


def _pack_header(count: int, sys_uptime_ms: int, unix_secs: int, sequence: int, source_id: int):
    return V9_HEADER.pack(9, count, sys_uptime_ms & _M32, unix_secs & _M32,
                          sequence & _M32, source_id & _M32)


def encode_v9_template(
    templates: Iterable[TemplateRecord],
    sys_uptime_ms: int = 0,
    unix_secs: int = 0,
    sequence: int = 0,
    source_id: int = 0,
) -> bytes:
    """Encode a datagram containing one template FlowSet (id 0)."""
    templates = list(templates)
    return (_pack_header(len(templates), sys_uptime_ms, unix_secs, sequence, source_id)
            + _template_set(0, templates))


def _field_bytes(flow: FlowRecord, f: TemplateField) -> bytes:
    """One IPFIX field of ``flow``: counters fill the field, and time is
    flowEndMilliseconds."""
    t = f.field_type
    if t in (IPV4_SRC_ADDR, IPV6_SRC_ADDR):
        return flow.src_ip.packed
    if t in (IPV4_DST_ADDR, IPV6_DST_ADDR):
        return flow.dst_ip.packed
    if t == L4_SRC_PORT:
        return struct.pack("!H", flow.src_port)
    if t == L4_DST_PORT:
        return struct.pack("!H", flow.dst_port)
    if t == PROTOCOL:
        return struct.pack("!B", flow.protocol)
    if t == IN_PKTS:
        return flow.packets.to_bytes(f.length, "big")
    if t == IN_BYTES:
        return flow.bytes_.to_bytes(f.length, "big")
    if t == FLOW_END_MILLISECONDS:
        return int(flow.ts * 1000.0).to_bytes(f.length, "big")
    value = flow.extra.get(FIELD_NAMES.get(t, f"field_{t}"), 0)
    return int(value).to_bytes(f.length, "big")


def _pack_message(body: bytes, export_secs: int, sequence: int, domain_id: int) -> bytes:
    header = IPFIX_HEADER.pack(IPFIX_VERSION, IPFIX_HEADER.size + len(body),
                               export_secs & _M32, sequence & _M32, domain_id & _M32)
    return header + body


def encode_ipfix_template(
    templates: Iterable[TemplateRecord],
    export_secs: int = 0,
    sequence: int = 0,
    domain_id: int = 0,
) -> bytes:
    """Encode one IPFIX message carrying a template set."""
    body = _template_set(TEMPLATE_SET_ID, templates)
    return _pack_message(body, export_secs, sequence, domain_id)


def encode_ipfix_data(
    template: TemplateRecord,
    flows: Iterable[FlowRecord],
    export_secs: int = 0,
    sequence: int = 0,
    domain_id: int = 0,
) -> bytes:
    """Encode flows as a data set against ``template``."""
    _, data_set = _data_set(template, flows, _field_bytes)
    return _pack_message(data_set, export_secs, sequence, domain_id)


def _batched(flows: Iterable, size: int) -> Iterator[List]:
    batch: List = []
    for flow in flows:
        batch.append(flow)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


#: One packed flow as the generator's hot loop carries it:
#: ``(ts, src_packed, dst_packed, src_port, dst_port, protocol, packets,
#: bytes)`` — addresses already in network byte order, everything else a
#: plain int. Family is implied by address length (4 or 16 bytes).
PackedFlow = Tuple[float, bytes, bytes, int, int, int, int, int]

_PACKED_V4_RECORD = struct.Struct("!4s4sHHBIII")
_PACKED_V6_RECORD = struct.Struct("!16s16sHHBIII")


class PackedV9Exporter:
    """The v9 writer, over :data:`PackedFlow` tuples.

    The template export (both standard templates) goes first and again
    every ``template_refresh`` data datagrams; each batch becomes one v4
    and one v6 data datagram, and a mixed-family flow is dropped. A
    record packs in one precompiled ``struct`` call. Its datagrams are
    byte-identical to the per-field oracle ``repro.reference.export_v9``.
    """

    def __init__(self, batch_size: int = 24, template_refresh: int = 64):
        if batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if template_refresh <= 0:
            raise ConfigError("template_refresh must be positive")
        self.batch_size = batch_size
        self.template_refresh = template_refresh
        self._sequence = 0
        self._sent_since_template: int | None = None  # None forces template first

    def export(self, flows: Iterable[PackedFlow]) -> Iterator[bytes]:
        """Yield datagrams covering all ``flows`` (batching internally)."""
        for batch in _batched(flows, self.batch_size):
            yield from self.export_batch(batch)

    def export_batch(self, batch: Sequence[PackedFlow]) -> Iterator[bytes]:
        """Encode one caller-assembled batch (<= ``batch_size`` flows)."""
        anchor = int(batch[0][0])
        if (
            self._sent_since_template is None
            or self._sent_since_template >= self.template_refresh
        ):
            yield encode_v9_template(
                [STANDARD_V4_TEMPLATE, STANDARD_V6_TEMPLATE], unix_secs=anchor,
                sequence=self._sequence,
            )
            self._sent_since_template = 0
        # Mixed-family tuples (v4 src, v6 dst) are dropped.
        v4: List[PackedFlow] = []
        v6: List[PackedFlow] = []
        for f in batch:
            if len(f[1]) == 4:
                if len(f[2]) == 4:
                    v4.append(f)
            elif len(f[1]) == 16 and len(f[2]) == 16:
                v6.append(f)
        for template_id, record, group in (
            (STANDARD_V4_TEMPLATE.template_id, _PACKED_V4_RECORD, v4),
            (STANDARD_V6_TEMPLATE.template_id, _PACKED_V6_RECORD, v6),
        ):
            if not group:
                continue
            pack = record.pack
            body = b"".join(
                [
                    pack(
                        f[1], f[2], f[3], f[4], f[5], f[6] & _M32, f[7] & _M32,
                        int((f[0] - anchor) * 1000.0) & _M32,
                    )
                    for f in group
                ]
            )
            header = _pack_header(len(group), 0, anchor, self._sequence, 0)
            yield header + _padded_set(template_id, body)
            self._sequence += len(group)
            self._sent_since_template += 1


def packed_flow(flow: FlowRecord) -> PackedFlow:
    """One :class:`FlowRecord` as the :data:`PackedFlow` tuple v9 export packs."""
    return (
        flow.ts, flow.src_ip.packed, flow.dst_ip.packed, flow.src_port,
        flow.dst_port, flow.protocol, flow.packets, flow.bytes_,
    )


class FlowExporter:
    """Encode flow records as a sequence of export datagrams.

    ``version`` selects the dialect (9 or 10/IPFIX). The first datagram
    out is the template export, and templates are re-announced every
    ``template_refresh`` data datagrams, mirroring router behaviour so
    late-joining collectors can synchronise. Sequence
    numbers and the template cadence run on across :meth:`export` calls.
    Version 9 is :class:`PackedV9Exporter` over :func:`packed_flow` tuples.
    """

    def __init__(self, version: int = 9, batch_size: int = 24, template_refresh: int = 64):
        if version not in (9, 10):
            raise ConfigError(f"unsupported NetFlow version {version}")
        # Validates batch_size and template_refresh for every version.
        self._v9 = PackedV9Exporter(batch_size, template_refresh)
        self.version = version
        self.batch_size = batch_size
        self.template_refresh = template_refresh
        self._sequence = 0
        self._sent_since_template: int | None = None  # None forces template first

    def export(self, flows: Iterable[FlowRecord]) -> Iterator[bytes]:
        """Yield datagrams covering all ``flows``."""
        if self.version == 9:
            yield from self._v9.export(map(packed_flow, flows))
        else:
            yield from self._export_ipfix(flows)

    def _export_ipfix(self, flows: Iterable[FlowRecord]) -> Iterator[bytes]:
        for batch in _batched(flows, self.batch_size):
            anchor = int(batch[0].ts)
            if (
                self._sent_since_template is None
                or self._sent_since_template >= self.template_refresh
            ):
                yield encode_ipfix_template([IPFIX_V4_TEMPLATE], export_secs=anchor,
                                            sequence=self._sequence)
                self._sent_since_template = 0
            v4 = [f for f in batch if f.src_ip.version == 4 and f.dst_ip.version == 4]
            if v4:
                yield encode_ipfix_data(IPFIX_V4_TEMPLATE, v4, export_secs=anchor,
                                        sequence=self._sequence)
                self._sequence += len(v4)
                self._sent_since_template += 1
