"""IPFIX (RFC 7011) wire codec, sharing field semantics with NetFlow v9.

The paper cites IPFIX alongside Netflow as the flow formats ISPs collect.
IPFIX differs from v9 in its message header (no record count or uptime; a
direct export-time field) and its set numbering (template set id 2). Field
types are inherited from v9's information elements, so we reuse them, with
one semantic difference: our IPFIX exporter ships absolute millisecond
timestamps (flowEndMilliseconds, IE 153) instead of uptime offsets.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.netflow.compiled import compile_decoder
from repro.netflow.records import FlowBatch, FlowRecord
from repro.netflow.v9 import (
    FIELD_NAMES,
    IPV4_DST_ADDR,
    IPV4_SRC_ADDR,
    IPV6_DST_ADDR,
    IPV6_SRC_ADDR,
    IN_BYTES,
    IN_PKTS,
    L4_DST_PORT,
    L4_SRC_PORT,
    PROTOCOL,
    SET_HEADER,
    TemplateField,
    TemplateRecord,
)
from repro.util.errors import ParseError

IPFIX_HEADER = struct.Struct("!HHIII")
IPFIX_VERSION = 10
TEMPLATE_SET_ID = 2

FLOW_END_MILLISECONDS = 153

#: A template field length meaning "variable length" (RFC 7011 §7).
VARIABLE_LENGTH = 65535

#: Default IPFIX template for IPv4 flows in this reproduction.
IPFIX_V4_TEMPLATE = TemplateRecord(
    template_id=300,
    fields=(
        TemplateField(IPV4_SRC_ADDR, 4),
        TemplateField(IPV4_DST_ADDR, 4),
        TemplateField(L4_SRC_PORT, 2),
        TemplateField(L4_DST_PORT, 2),
        TemplateField(PROTOCOL, 1),
        TemplateField(IN_PKTS, 8),
        TemplateField(IN_BYTES, 8),
        TemplateField(FLOW_END_MILLISECONDS, 8),
    ),
)


def _pack_message(body: bytes, export_secs: int, sequence: int, domain_id: int) -> bytes:
    return (
        IPFIX_HEADER.pack(
            IPFIX_VERSION,
            IPFIX_HEADER.size + len(body),
            export_secs & 0xFFFFFFFF,
            sequence & 0xFFFFFFFF,
            domain_id & 0xFFFFFFFF,
        )
        + body
    )


def encode_ipfix_template(
    templates: Iterable[TemplateRecord],
    export_secs: int = 0,
    sequence: int = 0,
    domain_id: int = 0,
) -> bytes:
    """Encode one IPFIX message carrying a template set."""
    body = bytearray()
    for tmpl in templates:
        body.extend(struct.pack("!HH", tmpl.template_id, len(tmpl.fields)))
        for f in tmpl.fields:
            body.extend(struct.pack("!HH", f.field_type, f.length))
    set_header = struct.pack("!HH", TEMPLATE_SET_ID, 4 + len(body))
    return _pack_message(set_header + bytes(body), export_secs, sequence, domain_id)


def _field_bytes(flow: FlowRecord, f: TemplateField) -> bytes:
    if f.field_type in (IPV4_SRC_ADDR, IPV6_SRC_ADDR):
        return flow.src_ip.packed
    if f.field_type in (IPV4_DST_ADDR, IPV6_DST_ADDR):
        return flow.dst_ip.packed
    if f.field_type == L4_SRC_PORT:
        return struct.pack("!H", flow.src_port)
    if f.field_type == L4_DST_PORT:
        return struct.pack("!H", flow.dst_port)
    if f.field_type == PROTOCOL:
        return struct.pack("!B", flow.protocol)
    if f.field_type == IN_PKTS:
        return flow.packets.to_bytes(f.length, "big")
    if f.field_type == IN_BYTES:
        return flow.bytes_.to_bytes(f.length, "big")
    if f.field_type == FLOW_END_MILLISECONDS:
        return int(flow.ts * 1000.0).to_bytes(f.length, "big")
    value = flow.extra.get(FIELD_NAMES.get(f.field_type, f"field_{f.field_type}"), 0)
    return int(value).to_bytes(f.length, "big")


def encode_ipfix_data(
    template: TemplateRecord,
    flows: Iterable[FlowRecord],
    export_secs: int = 0,
    sequence: int = 0,
    domain_id: int = 0,
) -> bytes:
    """Encode flows as a data set against ``template``."""
    body = bytearray()
    for flow in flows:
        for f in template.fields:
            chunk = _field_bytes(flow, f)
            if len(chunk) != f.length:
                raise ParseError(
                    f"field {f.field_type} produced {len(chunk)} bytes, template says {f.length}"
                )
            body.extend(chunk)
    padding = (-(4 + len(body))) % 4
    set_header = struct.pack("!HH", template.template_id, 4 + len(body) + padding)
    return _pack_message(set_header + bytes(body) + b"\x00" * padding, export_secs, sequence, domain_id)


@lru_cache(maxsize=256)
def compiled_ipfix_decoder(template: TemplateRecord) -> Callable[..., None]:
    """One compiled ``decode(out, payload, export_secs)`` per template."""
    return compile_decoder(
        template,
        FIELD_NAMES,
        frozenset({IPV4_SRC_ADDR, IPV6_SRC_ADDR}),
        frozenset({IPV4_DST_ADDR, IPV6_DST_ADDR}),
        FLOW_END_MILLISECONDS,
        "absolute_ms",
    )


class IpfixSession:
    """Stateful IPFIX collector: template cache keyed by observation domain.

    Like :class:`repro.netflow.v9.V9Session`: :meth:`decode_into` runs
    each data set through the template's compiled decoder, appending to
    a caller's :class:`FlowBatch` with packed addresses.
    """

    def __init__(self) -> None:
        self._templates: Dict[Tuple[int, int], TemplateRecord] = {}
        self._decoders: Dict[Tuple[int, int], Callable[..., None]] = {}

    def template_for(self, domain_id: int, template_id: int) -> Optional[TemplateRecord]:
        return self._templates.get((domain_id, template_id))

    def decode_into(self, out: FlowBatch, message: bytes, on_data=None) -> int:
        """Decode one message's data sets onto the end of ``out``.

        The one set walk, as :meth:`V9Session.decode_into`: validates the
        header, learns template sets, and hands each data set with a
        decodable template to the template's compiled decoder — or, when
        given, to ``on_data(out, tmpl, payload, export_secs)``, the
        per-field test oracle.

        A data set is skipped when its template is unknown or has a
        variable-length field (length 65535, RFC 7011 §7), which neither
        decoder reads; the return value is how many were.
        """
        if len(message) < IPFIX_HEADER.size:
            raise ParseError("IPFIX message shorter than header")
        version, length, export_secs, _seq, domain_id = IPFIX_HEADER.unpack_from(message, 0)
        if version != IPFIX_VERSION:
            raise ParseError(f"not an IPFIX message (version={version})")
        if length > len(message):
            raise ParseError("IPFIX message truncated")
        offset = IPFIX_HEADER.size
        skipped = 0
        while offset + 4 <= length:
            set_id, set_len = SET_HEADER.unpack_from(message, offset)
            if set_len < 4 or offset + set_len > length:
                raise ParseError("malformed IPFIX set length")
            payload = message[offset + 4 : offset + set_len]
            if set_id == TEMPLATE_SET_ID:
                self._learn_templates(domain_id, payload)
            elif set_id >= 256:
                key = (domain_id, set_id)
                decoder = self._decoders.get(key)
                if decoder is None:
                    skipped += 1
                else:
                    try:
                        if on_data is None:
                            decoder(out, payload, export_secs)
                        else:
                            on_data(out, self._templates[key], payload, export_secs)
                    except (ValueError, OverflowError) as exc:
                        # Same contract as V9Session.decode_into: a
                        # wire value the record decode rejects — or a
                        # timestamp too wide for a float — is malformed
                        # input.
                        raise ParseError(f"undecodable flow record: {exc}") from exc
            offset += set_len
        return skipped

    def decode_batch_columns(self, message: bytes) -> FlowBatch:
        """Decode one message into a fresh columnar :class:`FlowBatch`."""
        batch = FlowBatch()
        self.decode_into(batch, message)
        batch.addresses_to_text()
        return batch

    def _learn_templates(self, domain_id: int, payload: bytes) -> None:
        offset = 0
        while offset + 4 <= len(payload):
            template_id, field_count = struct.unpack_from("!HH", payload, offset)
            offset += 4
            if template_id == 0 and field_count == 0:
                break
            fields = []
            for _ in range(field_count):
                if offset + 4 > len(payload):
                    raise ParseError("truncated IPFIX template")
                ftype, flen = struct.unpack_from("!HH", payload, offset)
                fields.append(TemplateField(ftype, flen))
                offset += 4
            key = (domain_id, template_id)
            tmpl = TemplateRecord(template_id, tuple(fields))
            self._templates[key] = tmpl
            if any(f.length == VARIABLE_LENGTH for f in fields):
                self._decoders.pop(key, None)
            else:
                self._decoders[key] = compiled_ipfix_decoder(tmpl)
