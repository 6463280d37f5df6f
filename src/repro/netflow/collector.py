"""Version-sniffing flow collector.

An ISP collector receives datagrams from many exporters speaking different
NetFlow dialects. :class:`FlowCollector` sniffs the 16-bit version field and
dispatches to the right codec, maintaining per-protocol session state
(templates) and drop counters for undecodable datagrams — a collector must
never let one malformed export kill the pipeline feeding FlowDNS.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.netflow.ipfix import IpfixSession
from repro.netflow.records import FlowBatch, FlowRecord
from repro.netflow.v5 import decode_v5, decode_v5_columns
from repro.netflow.v9 import V9Session
from repro.util.errors import ParseError


@dataclass
class CollectorStats:
    """Counters for observability of the collector itself."""

    datagrams: int = 0
    flows: int = 0
    malformed: int = 0
    unknown_version: int = 0
    by_version: dict = field(default_factory=dict)

    def note(self, version: int, flow_count: int) -> None:
        self.datagrams += 1
        self.flows += flow_count
        self.by_version[version] = self.by_version.get(version, 0) + 1


def probe_version(datagram: bytes) -> int:
    """Return the datagram's 16-bit version field.

    Raises :class:`ParseError` (never ``struct.error``) when the datagram
    is shorter than the 2-byte probe — a truncated export must surface as
    the same error family every other malformed input does.
    """
    if len(datagram) < 2:
        raise ParseError(
            f"datagram shorter than the 2-byte version probe ({len(datagram)} bytes)"
        )
    (version,) = struct.unpack_from("!H", datagram, 0)
    return version


class FlowCollector:
    """Decode NetFlow v5 / v9 / IPFIX datagrams into flow records."""

    def __init__(self) -> None:
        self._v9 = V9Session()
        self._ipfix = IpfixSession()
        self.stats = CollectorStats()

    def ingest(self, datagram: bytes) -> List[FlowRecord]:
        """Decode one datagram per field; malformed input is counted, not raised.

        The reference lane (:class:`FlowRecord` objects out) that the
        parity tests hold :meth:`ingest_columns` to. Returns the decoded
        flows (possibly empty, e.g. for a pure template datagram).
        """
        try:
            version = probe_version(datagram)
            if version == 5:
                _, flows = decode_v5(datagram)
            elif version == 9:
                flows = self._v9.decode(datagram)
            elif version == 10:
                flows = self._ipfix.decode(datagram)
            else:
                self.stats.unknown_version += 1
                return []
        except ParseError:
            self.stats.malformed += 1
            return []
        self.stats.note(version, len(flows))
        return flows

    def ingest_columns(self, datagram: bytes) -> FlowBatch:
        """Columnar :meth:`ingest`: decode one datagram into a FlowBatch.

        The production lane: same version sniffing, session state, and
        counters as :meth:`ingest`, but v9/IPFIX data sets run the
        compiled per-template decoders and the flows come out as columns
        — what the engines' flow lanes feed on.
        """
        try:
            version = probe_version(datagram)
            if version == 5:
                _, batch = decode_v5_columns(datagram)
            elif version == 9:
                batch = self._v9.decode_batch_columns(datagram)
            elif version == 10:
                batch = self._ipfix.decode_batch_columns(datagram)
            else:
                self.stats.unknown_version += 1
                return FlowBatch()
        except ParseError:
            self.stats.malformed += 1
            return FlowBatch()
        self.stats.note(version, len(batch))
        return batch

    def ingest_columns_many(self, datagrams) -> FlowBatch:
        """Decode a burst of datagrams into one accumulated FlowBatch.

        The bulk shape the batched socket layers drain in: N raw
        datagrams in, one columnar batch out, with the usual per-datagram
        session state and malformed/unknown-version counting. Callers
        that need a malformed delta snapshot ``stats`` around the call.
        """
        batch = FlowBatch()
        for datagram in datagrams:
            batch.extend(self.ingest_columns(datagram))
        return batch
