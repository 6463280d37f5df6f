"""NetFlow version 9 decode (RFC 3954): template-driven records.

Unlike v5, a v9 exporter first describes its record layout in a *template
FlowSet* and then ships *data FlowSets* that reference the template id. A
collector must therefore be stateful: :class:`V9Session` caches templates
per (source-id, template-id) and decodes data FlowSets against them, which
is exactly what an ISP-side collector feeding FlowDNS does. The writer
is :mod:`repro.netflow.export`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from repro.netflow.compiled import compile_decoder
from repro.netflow.records import FlowBatch
from repro.util.errors import ParseError

V9_HEADER = struct.Struct("!HHIIII")
#: A FlowSet (IPFIX: set) header: set id, set length.
SET_HEADER = struct.Struct("!HH")

# Field type numbers from RFC 3954 §8.
IN_BYTES = 1
IN_PKTS = 2
PROTOCOL = 4
L4_SRC_PORT = 7
IPV4_SRC_ADDR = 8
IPV4_DST_ADDR = 12
L4_DST_PORT = 11
SRC_AS = 16
DST_AS = 17
LAST_SWITCHED = 21
FIRST_SWITCHED = 22
IPV6_SRC_ADDR = 27
IPV6_DST_ADDR = 28

FIELD_NAMES = {
    IN_BYTES: "bytes",
    IN_PKTS: "packets",
    PROTOCOL: "protocol",
    L4_SRC_PORT: "src_port",
    IPV4_SRC_ADDR: "src_ip4",
    L4_DST_PORT: "dst_port",
    IPV4_DST_ADDR: "dst_ip4",
    SRC_AS: "src_as",
    DST_AS: "dst_as",
    LAST_SWITCHED: "last_switched",
    FIRST_SWITCHED: "first_switched",
    IPV6_SRC_ADDR: "src_ip6",
    IPV6_DST_ADDR: "dst_ip6",
}


@dataclass(frozen=True)
class TemplateField:
    """One (type, length) entry of a template record."""

    field_type: int
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise ParseError("template field length must be positive")


@dataclass(frozen=True)
class TemplateRecord:
    """A v9/IPFIX template: an id plus its ordered field layout."""

    template_id: int
    fields: Tuple[TemplateField, ...]

    def __post_init__(self):
        if not 256 <= self.template_id <= 65535:
            raise ParseError("data template ids must be >= 256")
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def record_length(self) -> int:
        return sum(f.length for f in self.fields)


#: The template the reproduction's exporters use for IPv4 flows.
STANDARD_V4_TEMPLATE = TemplateRecord(
    template_id=256,
    fields=(
        TemplateField(IPV4_SRC_ADDR, 4),
        TemplateField(IPV4_DST_ADDR, 4),
        TemplateField(L4_SRC_PORT, 2),
        TemplateField(L4_DST_PORT, 2),
        TemplateField(PROTOCOL, 1),
        TemplateField(IN_PKTS, 4),
        TemplateField(IN_BYTES, 4),
        TemplateField(LAST_SWITCHED, 4),
    ),
)

#: IPv6 variant (AAAA traffic appears in the paper's streams too).
STANDARD_V6_TEMPLATE = TemplateRecord(
    template_id=257,
    fields=(
        TemplateField(IPV6_SRC_ADDR, 16),
        TemplateField(IPV6_DST_ADDR, 16),
        TemplateField(L4_SRC_PORT, 2),
        TemplateField(L4_DST_PORT, 2),
        TemplateField(PROTOCOL, 1),
        TemplateField(IN_PKTS, 4),
        TemplateField(IN_BYTES, 4),
        TemplateField(LAST_SWITCHED, 4),
    ),
)


_SRC_ADDR_TYPES = frozenset({IPV4_SRC_ADDR, IPV6_SRC_ADDR})
_DST_ADDR_TYPES = frozenset({IPV4_DST_ADDR, IPV6_DST_ADDR})


@lru_cache(maxsize=256)
def compiled_v9_decoder(template: TemplateRecord) -> Callable[..., None]:
    """One compiled ``decode(out, payload, unix_secs, sys_uptime)`` per
    template.

    Memoised so periodic template refreshes (re-learning an identical
    layout) never recompile.
    """
    return compile_decoder(
        template,
        FIELD_NAMES,
        _SRC_ADDR_TYPES,
        _DST_ADDR_TYPES,
        LAST_SWITCHED,
        "uptime_ms",
    )


class V9Session:
    """Stateful v9 collector side: caches templates, decodes data FlowSets.

    :meth:`decode_into` runs each data FlowSet through the template's
    compiled decoder, appending to a caller's :class:`FlowBatch` with
    packed addresses, which :meth:`FlowBatch.addresses_to_text` turns
    into text at the end of the burst.
    """

    def __init__(self) -> None:
        self._templates: Dict[Tuple[int, int], TemplateRecord] = {}
        self._decoders: Dict[Tuple[int, int], Callable[..., None]] = {}

    def template_for(self, source_id: int, template_id: int) -> Optional[TemplateRecord]:
        return self._templates.get((source_id, template_id))

    def decode_into(self, out: FlowBatch, datagram: bytes, on_data=None) -> int:
        """Decode one datagram's data FlowSets onto the end of ``out``.

        The one FlowSet walk: validates the header, learns template
        FlowSets, and hands each data FlowSet with a known template to
        the template's compiled decoder — or, when given, to
        ``on_data(out, tmpl, payload, unix_secs, sys_uptime)``, the
        per-field test oracle, which so runs on this same walk.

        Data FlowSets referencing an unknown template are skipped (the
        standard collector behaviour until the template refresh
        arrives); the return value is how many were. Malformed
        input raises :class:`ParseError`, possibly after rows of earlier
        FlowSets were appended (:meth:`FlowBatch.truncate` rolls them
        back).
        """
        if len(datagram) < V9_HEADER.size:
            raise ParseError("v9 datagram shorter than header")
        version, _count, sys_uptime, unix_secs, _seq, source_id = V9_HEADER.unpack_from(datagram, 0)
        if version != 9:
            raise ParseError(f"not a v9 datagram (version={version})")
        offset = V9_HEADER.size
        end = len(datagram)
        skipped = 0
        while offset + 4 <= end:
            set_id, set_len = SET_HEADER.unpack_from(datagram, offset)
            if set_len < 4 or offset + set_len > end:
                raise ParseError("malformed FlowSet length")
            payload = datagram[offset + 4 : offset + set_len]
            if set_id == 0:
                self._learn_templates(source_id, payload)
            elif set_id >= 256:
                key = (source_id, set_id)
                decoder = self._decoders.get(key)
                if decoder is None:
                    skipped += 1
                else:
                    try:
                        if on_data is None:
                            decoder(out, payload, unix_secs, sys_uptime)
                        else:
                            on_data(out, self._templates[key], payload, unix_secs, sys_uptime)
                    except (ValueError, OverflowError) as exc:
                        # A wire value the record decode rejects — a
                        # port over 16 bits in a wide port field, an
                        # address field that is not 4/16 bytes — is
                        # malformed input, not a programming error.
                        raise ParseError(f"undecodable flow record: {exc}") from exc
            offset += set_len
        return skipped

    def decode_batch_columns(self, datagram: bytes) -> FlowBatch:
        """Decode one datagram into a fresh columnar :class:`FlowBatch`."""
        batch = FlowBatch()
        self.decode_into(batch, datagram)
        batch.addresses_to_text()
        return batch

    def _learn_templates(self, source_id: int, payload: bytes) -> None:
        offset = 0
        while offset + 4 <= len(payload):
            template_id, field_count = struct.unpack_from("!HH", payload, offset)
            offset += 4
            if template_id == 0 and field_count == 0:
                break  # padding
            fields = []
            for _ in range(field_count):
                if offset + 4 > len(payload):
                    raise ParseError("truncated template record")
                ftype, flen = struct.unpack_from("!HH", payload, offset)
                fields.append(TemplateField(ftype, flen))
                offset += 4
            key = (source_id, template_id)
            tmpl = TemplateRecord(template_id, tuple(fields))
            self._templates[key] = tmpl
            # Compile at registration so the first data FlowSet pays nothing.
            self._decoders[key] = compiled_v9_decoder(tmpl)
