"""Pipeline runtime for the live engine (stages and lanes).

The live engine (:class:`repro.core.async_engine.AsyncEngine`, one
asyncio loop) runs the two lanes from the paper's Figure 1:

* the **fill lane** (DNS): batch a wake-up's raw wire payloads into one
  :class:`~repro.dns.columnar.DnsBatch` via the selective columnar
  decoder and store its columns directly (non-wire items — records,
  decoded messages — take the object FillUp filter and land in the same
  storage entry);
* the **lookup lane** (Netflow): normalise stream items (raw export
  datagrams, :class:`FlowRecord` objects, or whole :class:`FlowBatch`
  es) into one columnar batch per wake-up, correlate it, and hand the
  resulting :class:`CorrelationBatch` to the write sink.

The engine module supplies only *scheduling policy* — how lane
invocations map onto asyncio tasks — and everything else (item
normalisation, stats plumbing, report assembly) lives here, pinned by
one parity suite. Which expiry policy the storage runs is the storage's
business (:meth:`DnsStorage.add_many_columns`), not a lane's.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.fillup import FillUpProcessor
from repro.core.lookup import CorrelationBatch, LookUpProcessor
from repro.core.metrics import EngineReport, IngestStats, dedupe_warnings
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import decode_fill_columns
from repro.dns.stream import DnsRecord
from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowBatch, FlowRecord

# --- the ingest-source protocol ---------------------------------------------
#
# Every socket- or capture-fed stream source — :class:`repro.replay.source
# .ReplaySource` and the live
# :class:`~repro.core.ingest.UdpFlowIngest` /
# :class:`~repro.core.ingest.TcpDnsIngest` — implements one
# protocol, so engines and the capture tee never special-case types:
#
# * ``ingest_stats`` — an :class:`IngestStats` of what arrived off the
#   wire, what reached the pipeline, and what was dropped or malformed;
#   :func:`collect_ingest` surfaces it under ``EngineReport.ingest``.
# * ``capture=`` — constructors accept an optional
#   :class:`repro.replay.capture.CaptureWriter`; every received wire
#   unit is recorded *pre-decode* (malformed input included) so a replay
#   reproduces the same counters.
# * ``close()`` — idempotent teardown; a closed source delivers nothing
#   more and its sockets are released. Iterating an iterable source
#   after close is safe and yields nothing.
#
# Sources that can feed the asyncio engine *live* (rather than being
# pumped as finite iterables) additionally implement the live hooks
# ``connect_buffer(buffer)``, ``await start(loop)`` and ``await stop()``
# — :func:`is_live_source` duck-types on those. A finite source that is
# ``realtime`` (a paced :class:`~repro.replay.source.ReplaySource`)
# additionally offers ``paced()``, its items as ``(delay, item)`` pairs,
# so the asyncio engine can wait out the gaps without blocking its loop.


def is_live_source(source) -> bool:
    """True for sources implementing the live asyncio ingest hooks."""
    return callable(getattr(source, "connect_buffer", None)) and callable(
        getattr(source, "start", None)
    )


# --- item normalisation -----------------------------------------------------


def dns_item_records(item, processor: FillUpProcessor) -> Sequence[DnsRecord]:
    """Normalise one DNS stream item into stream records.

    Accepts a :class:`DnsRecord` (passed through) or a ``(ts, payload)``
    tuple whose payload is wire bytes or a decoded message — the FillUp
    filter handles validation. Anything else normalises to nothing.
    """
    if isinstance(item, DnsRecord):
        return (item,)
    if isinstance(item, tuple) and len(item) == 2:
        ts, payload = item
        return processor.filter_message(ts, payload)
    return ()


def extend_flow_batch(batch: FlowBatch, item, collector: FlowCollector) -> None:
    """Fold one flow stream item into a columnar accumulator.

    Raw export datagrams decode through the (stateful, template-holding)
    ``collector`` straight to columns; records and batches append without
    materialising anything. Unknown item types are ignored, matching the
    engines' historical tolerance.
    """
    if isinstance(item, FlowBatch):
        batch.extend(item)
    elif isinstance(item, FlowRecord):
        batch.append_record(item)
    elif isinstance(item, (bytes, bytearray)):
        batch.extend(collector.ingest_columns(bytes(item)))


def flow_items_to_batch(items: Iterable, collector: FlowCollector) -> FlowBatch:
    """Accumulate a drained wake-up's items into one :class:`FlowBatch`."""
    batch = FlowBatch()
    for item in items:
        extend_flow_batch(batch, item, collector)
    return batch


# --- lanes ------------------------------------------------------------------


class FillLane:
    """The DNS fill stage: items → validated rows → storage.

    A wake-up's raw wire payloads accumulate into one
    :class:`~repro.dns.columnar.DnsBatch` (the DNS twin of the shape
    :class:`LookupLane` feeds ``correlate_batch_columns``) and go to
    storage without materialising a single per-record object. Items that
    arrive already decoded — :class:`DnsRecord` objects, ``(ts,
    DnsMessage)`` tuples — take the object filter and ``process_batch``,
    which lays them out as the same columns.
    """

    __slots__ = ("processor",)

    def __init__(self, processor: FillUpProcessor):
        self.processor = processor

    def process_items(self, items: Iterable) -> None:
        """Normalise and store one wake-up's worth of stream items.

        Contiguous runs of (ts, wire) items batch-decode straight to
        columns; anything else (DnsRecord objects, decoded messages)
        takes the object path. Runs flush on kind switches so storage
        sees items in arrival order — overwrite and clear-up semantics
        are order-sensitive.
        """
        payloads: List = []
        stamps: List[float] = []
        records: List[DnsRecord] = []
        for item in items:
            if (
                type(item) is tuple
                and len(item) == 2
                and isinstance(item[1], (bytes, bytearray, memoryview))
            ):
                if records:
                    self.processor.process_batch(records)
                    records = []
                stamps.append(item[0])
                payloads.append(item[1])
                continue
            if payloads:
                self.processor.process_columns(
                    decode_fill_columns(payloads, stamps)
                )
                payloads = []
                stamps = []
            records.extend(dns_item_records(item, self.processor))
        if payloads:
            self.processor.process_columns(decode_fill_columns(payloads, stamps))
        if records:
            self.processor.process_batch(records)


class LookupLane:
    """The flow lookup stage: items → one columnar batch → correlation.

    Whatever mix of item types a stream carries, decode→correlate
    touches only :class:`FlowBatch` columns and per-record objects are
    never materialised. The per-record oracle is the processor's
    ``process``.
    """

    __slots__ = ("processor", "collector", "ingest_stats")

    def __init__(
        self,
        processor: LookUpProcessor,
        collector: Optional[FlowCollector] = None,
        ingest_stats: Optional[IngestStats] = None,
    ):
        self.processor = processor
        self.collector = collector if collector is not None else FlowCollector()
        #: When a live source defers datagram decode to this lane (the
        #: off-loop batched path), its per-source stats ride along so the
        #: malformed-input count lands where operators look for it —
        #: decode moved off the socket callback, the accounting must not
        #: move with it.
        self.ingest_stats = ingest_stats

    def correlate_items(self, items: Iterable) -> Optional[CorrelationBatch]:
        """Fold one wake-up's items into a batch and correlate it; None
        when the items carried no flows."""
        cstats = self.collector.stats
        errors_before = cstats.malformed + cstats.unknown_version
        batch = flow_items_to_batch(items, self.collector)
        if self.ingest_stats is not None:
            self.ingest_stats.malformed += (
                cstats.malformed + cstats.unknown_version - errors_before
            )
        if not len(batch):
            return None
        return self.processor.correlate_batch_columns(batch)


def source_failure_warning(name: str, exc: BaseException) -> str:
    """The report warning recorded when a stream source raises mid-run.

    A failing source (a truncated capture file, a corrupt export) must
    not hang the engine or silently truncate the run: its buffer closes,
    everything received before the failure still flows through, and this
    warning lands in :attr:`EngineReport.warnings`.
    """
    return (
        f"source {name} failed mid-stream: {exc!r}; results cover only "
        f"items received before the failure"
    )


def ingest_drop_warning(name: str, stats: IngestStats) -> str:
    """The report warning recorded when an ingest source dropped items.

    Loss must be *visible*, not just counted: the accounting-invariant
    checker (:mod:`repro.core.invariants`) fails any report whose
    counters say data was lost while ``warnings`` stays empty.
    """
    return (
        f"source {name} dropped {stats.dropped} of {stats.received} "
        f"received items (ingest buffer overflow)"
    )


def buffer_loss_warning(rate: float) -> str:
    """The report warning recorded for non-zero ingress buffer loss."""
    return (
        f"ingress stream buffers overflowed: {rate:.2%} of offered items "
        f"dropped (see overall_loss_rate)"
    )


# --- ingest accounting ------------------------------------------------------


def collect_ingest(report: EngineReport, sources: Iterable) -> None:
    """Attach per-source ingest counters for socket-fed sources.

    Any source exposing an ``ingest_stats`` attribute (an
    :class:`IngestStats`, per the ingest-source protocol above) gets its
    counters surfaced under :attr:`EngineReport.ingest`, keyed by the
    stats' name (suffixed on collision so two unnamed sources don't
    shadow each other).

    Loss visibility, then bounded readability: every source whose
    counters say it dropped items gets an
    :func:`ingest_drop_warning`, and the final warning list is
    collapsed through :func:`repro.core.metrics.dedupe_warnings`
    (``message ×N``) — chaos runs can repeat one failure hundreds of
    times. Engines call this as the last step of report assembly.
    """
    for source in sources:
        stats = getattr(source, "ingest_stats", None)
        if isinstance(stats, IngestStats):
            key = stats.name
            if key in report.ingest:
                key = f"{key}#{len(report.ingest)}"
            report.ingest[key] = stats
    for key, stats in report.ingest.items():
        if stats.dropped > 0:
            report.warnings.append(ingest_drop_warning(key, stats))
    report.warnings[:] = dedupe_warnings(report.warnings)


# --- report assembly --------------------------------------------------------

def stack_report(
    fillup_processors: Sequence[FillUpProcessor],
    lookup_processors: Sequence[LookUpProcessor],
    storage: DnsStorage,
    variant_name: str,
) -> EngineReport:
    """Fold one fill/lookup/storage stack into an :class:`EngineReport`.

    The stack is every lane processor of one run over their shared
    storage: lane counters sum across the processors; resident entries,
    overwrites and evictions are the storage's own.
    """
    report = EngineReport(variant_name=variant_name)
    chain_lengths = report.chain_lengths
    for processor in lookup_processors:
        stats = processor.stats
        report.flow_records += stats.flows_in
        report.total_bytes += stats.bytes_in
        report.correlated_bytes += stats.bytes_matched
        report.matched_flows += stats.matched
        for length, count in stats.chain_lengths.items():
            chain_lengths[length] = chain_lengths.get(length, 0) + count
    for processor in fillup_processors:
        report.dns_records += processor.stats.records_in
        report.dns_invalid += processor.stats.invalid
    report.final_map_entries = storage.total_entries()
    report.overwrites = storage.overwrites()
    report.evictions = storage.evictions()
    return report


def buffer_loss_rate(buffers: Iterable) -> float:
    """Overall ingress loss across a run's bounded stream buffers."""
    offered = dropped = 0
    for buffer in buffers:
        offered += buffer.stats.offered
        dropped += buffer.stats.dropped
    return dropped / offered if offered else 0.0
