"""Flow exporter: batches flow records into export datagrams.

The inverse of :class:`repro.netflow.collector.FlowCollector`; workload
generators use it to produce genuine wire-format streams so integration
tests exercise encode → datagram → decode → correlate end to end.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.netflow.ipfix import IPFIX_V4_TEMPLATE, encode_ipfix_data, encode_ipfix_template
from repro.netflow.records import FlowRecord
from repro.netflow.v5 import V5_MAX_RECORDS, encode_v5
from repro.netflow.v9 import (
    STANDARD_V4_TEMPLATE,
    STANDARD_V6_TEMPLATE,
    V9_HEADER,
    encode_v9_data,
    encode_v9_template,
)
from repro.util.errors import ConfigError


def _batched(flows: Iterable[FlowRecord], size: int) -> Iterator[List[FlowRecord]]:
    batch: List[FlowRecord] = []
    for flow in flows:
        batch.append(flow)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


class FlowExporter:
    """Encode flow records as a sequence of export datagrams.

    ``version`` selects the dialect (5, 9 or 10/IPFIX). For template-based
    dialects the first datagram out is the template export, and templates
    are re-announced every ``template_refresh`` data datagrams, mirroring
    router behaviour so late-joining collectors can synchronise.
    """

    def __init__(self, version: int = 9, batch_size: int = 24, template_refresh: int = 64):
        if version not in (5, 9, 10):
            raise ConfigError(f"unsupported NetFlow version {version}")
        if batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if version == 5 and batch_size > V5_MAX_RECORDS:
            raise ConfigError(f"v5 batches are limited to {V5_MAX_RECORDS} records")
        self.version = version
        self.batch_size = batch_size
        self.template_refresh = template_refresh
        self._sequence = 0

    def export(self, flows: Iterable[FlowRecord]) -> Iterator[bytes]:
        """Yield datagrams covering all ``flows``."""
        if self.version == 5:
            yield from self._export_v5(flows)
        elif self.version == 9:
            yield from self._export_v9(flows)
        else:
            yield from self._export_ipfix(flows)

    def _export_v5(self, flows: Iterable[FlowRecord]) -> Iterator[bytes]:
        for batch in _batched(flows, self.batch_size):
            anchor = int(batch[0].ts)
            yield encode_v5(batch, unix_secs=anchor, flow_sequence=self._sequence)
            self._sequence += len(batch)

    def _export_v9(self, flows: Iterable[FlowRecord]) -> Iterator[bytes]:
        sent_since_template = None  # force template first
        for batch in _batched(flows, self.batch_size):
            anchor = int(batch[0].ts)
            if sent_since_template is None or sent_since_template >= self.template_refresh:
                yield encode_v9_template(
                    [STANDARD_V4_TEMPLATE, STANDARD_V6_TEMPLATE], unix_secs=anchor,
                    sequence=self._sequence,
                )
                sent_since_template = 0
            v4 = [f for f in batch if f.src_ip.version == 4 and f.dst_ip.version == 4]
            v6 = [f for f in batch if f.src_ip.version == 6 and f.dst_ip.version == 6]
            for template, group in ((STANDARD_V4_TEMPLATE, v4), (STANDARD_V6_TEMPLATE, v6)):
                if group:
                    yield encode_v9_data(
                        template, group, unix_secs=anchor, sequence=self._sequence
                    )
                    self._sequence += len(group)
                    sent_since_template += 1

    def _export_ipfix(self, flows: Iterable[FlowRecord]) -> Iterator[bytes]:
        sent_since_template = None
        for batch in _batched(flows, self.batch_size):
            anchor = int(batch[0].ts)
            if sent_since_template is None or sent_since_template >= self.template_refresh:
                yield encode_ipfix_template([IPFIX_V4_TEMPLATE], export_secs=anchor,
                                            sequence=self._sequence)
                sent_since_template = 0
            v4 = [f for f in batch if f.src_ip.version == 4 and f.dst_ip.version == 4]
            if v4:
                yield encode_ipfix_data(IPFIX_V4_TEMPLATE, v4, export_secs=anchor,
                                        sequence=self._sequence)
                self._sequence += len(v4)
                sent_since_template += 1


#: One packed flow as the generator's hot loop carries it:
#: ``(ts, src_packed, dst_packed, src_port, dst_port, protocol, packets,
#: bytes)`` — addresses already in network byte order, everything else a
#: plain int. Family is implied by address length (4 or 16 bytes).
PackedFlow = Tuple[float, bytes, bytes, int, int, int, int, int]

_PACKED_V4_RECORD = struct.Struct("!4s4sHHBIII")
_PACKED_V6_RECORD = struct.Struct("!16s16sHHBIII")
_FLOWSET_HEADER = struct.Struct("!HH")
_M32 = 0xFFFFFFFF


class PackedV9Exporter:
    """v9 encoder over :data:`PackedFlow` tuples — the generator's fast path.

    Produces datagrams *byte-identical* to ``FlowExporter(version=9)``
    fed equivalent :class:`FlowRecord` objects (same template cadence,
    sequence accounting, v4/v6 FlowSet split, field packing — the
    equivalence suite in ``tests/test_workload_generator.py`` pins this),
    but skips per-record object construction and per-field dispatch: the
    whole record packs in one precompiled ``struct`` call. That is what
    lets a workload generator emit hundreds of thousands of wire-accurate
    flows per second from pure Python.
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
        batch: List[PackedFlow] = []
        for flow in flows:
            batch.append(flow)
            if len(batch) == self.batch_size:
                yield from self.export_batch(batch)
                batch = []
        if batch:
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
        # Mixed-family tuples (v4 src, v6 dst) are dropped, matching
        # FlowExporter's per-family group filters.
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
            padding = (-(4 + len(body))) % 4
            yield (
                V9_HEADER.pack(9, len(group), 0, anchor & _M32, self._sequence & _M32, 0)
                + _FLOWSET_HEADER.pack(template_id, 4 + len(body) + padding)
                + body
                + b"\x00" * padding
            )
            self._sequence += len(group)
            self._sent_since_template += 1
