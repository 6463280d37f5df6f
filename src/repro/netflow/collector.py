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

from repro.netflow.ipfix import IpfixSession
from repro.netflow.records import FlowBatch
from repro.netflow.v5 import decode_v5_columns
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
    """Decode NetFlow v5 / v9 / IPFIX datagrams into flow batches."""

    def __init__(self) -> None:
        #: The per-dialect template sessions.
        self.v9 = V9Session()
        self.ipfix = IpfixSession()
        self.stats = CollectorStats()

    def ingest_columns(self, datagram: bytes) -> FlowBatch:
        """Decode one datagram into a FlowBatch; malformed input is
        counted, not raised.

        Sniffs the version, keeps the v9/IPFIX template state, and runs
        the compiled per-template decoders. A pure template datagram
        yields an empty batch.
        """
        try:
            version = probe_version(datagram)
            if version == 5:
                _, batch = decode_v5_columns(datagram)
            elif version == 9:
                batch = self.v9.decode_batch_columns(datagram)
            elif version == 10:
                batch = self.ipfix.decode_batch_columns(datagram)
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
