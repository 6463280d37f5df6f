"""Version-sniffing flow collector.

An ISP collector receives datagrams from many exporters speaking different
NetFlow dialects. :class:`FlowCollector` sniffs the 16-bit version field and
dispatches to the right codec, maintaining per-protocol session state
(templates) and drop counters for undecodable datagrams — a collector must
never let one malformed export kill the pipeline feeding FlowDNS.

The unit of work is a *burst*: :meth:`FlowCollector.ingest_columns_many`
walks many datagrams into one :class:`FlowBatch`, each data set's
compiled decoder appending its columns straight onto it, addresses as
packed bytes. Per-datagram work is the version probe and the set walk;
a datagram found malformed is rolled back out of the batch. At the end
of the burst the two address columns become text, each distinct
address converted once (:meth:`FlowBatch.addresses_to_text`), and the
burst's counters reach :class:`CollectorStats` in one fold.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

from repro.netflow.ipfix import IpfixSession
from repro.netflow.records import FlowBatch
from repro.netflow.v5 import decode_v5_into
from repro.netflow.v9 import V9Session
from repro.util.errors import ParseError


@dataclass
class CollectorStats:
    """Counters for observability of the collector itself.

    ``sets_skipped`` counts data sets the sessions' set walk passed over
    undecoded: a set whose template has not arrived yet (an exporter
    joined mid-stream), or an IPFIX set whose template has a
    variable-length field. Their datagrams still count as decoded.
    """

    datagrams: int = 0
    flows: int = 0
    malformed: int = 0
    unknown_version: int = 0
    sets_skipped: int = 0
    by_version: dict = field(default_factory=dict)


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
        """Decode one datagram into a FlowBatch: the one-datagram case of
        :meth:`ingest_columns_many`. A pure template datagram yields an
        empty batch."""
        return self.ingest_columns_many((datagram,))

    def ingest_columns_many(self, datagrams: Iterable[bytes]) -> FlowBatch:
        """Decode a burst of datagrams into one FlowBatch; malformed input
        is counted, not raised.

        Sniffs each datagram's version and keeps the v9/IPFIX template
        state; every data set's compiled decoder appends straight to the
        one accumulator. A datagram that turns out malformed — even in
        a FlowSet after ones that decoded — is rolled back, so none of
        its rows survive, and counts under ``stats.malformed``. The
        address columns are converted to text, and the burst's counters
        folded into ``stats``, once, at the end;
        callers that need a malformed delta snapshot ``stats`` around
        the call.
        """
        batch = FlowBatch()
        rows = batch.ts
        decode_v9 = self.v9.decode_into
        decode_ipfix = self.ipfix.decode_into
        versions: dict = {}
        malformed = unknown = skipped = 0
        for datagram in datagrams:
            mark = len(rows)
            try:
                version = probe_version(datagram)
                if version == 9:
                    skipped += decode_v9(batch, datagram)
                elif version == 10:
                    skipped += decode_ipfix(batch, datagram)
                elif version == 5:
                    decode_v5_into(batch, datagram)
                else:
                    unknown += 1
                    continue
            except ParseError:
                malformed += 1
                batch.truncate(mark)
                continue
            versions[version] = versions.get(version, 0) + 1
        batch.addresses_to_text()
        stats = self.stats
        stats.datagrams += sum(versions.values())
        stats.flows += len(rows)
        stats.malformed += malformed
        stats.unknown_version += unknown
        stats.sets_skipped += skipped
        by_version = stats.by_version
        for version, count in versions.items():
            by_version[version] = by_version.get(version, 0) + count
        return batch
