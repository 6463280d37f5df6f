"""Shared pipeline runtime for the live engines (stages and lanes).

Both live engines — worker processes
(:class:`repro.core.sharded.ShardedEngine`) and a single asyncio loop
(:class:`repro.core.async_engine.AsyncEngine`) — run the same two lanes
from the paper's Figure 1:

* the **fill lane** (DNS): batch a wake-up's raw wire payloads into one
  :class:`~repro.dns.columnar.DnsBatch` via the selective columnar
  decoder and store its columns directly (non-wire items — records,
  decoded messages — take the object FillUp filter and land in the same
  storage entry);
* the **lookup lane** (Netflow): normalise stream items (raw export
  datagrams, :class:`FlowRecord` objects, or whole :class:`FlowBatch`
  es) into one columnar batch per wake-up, correlate it, and hand the
  resulting :class:`CorrelationBatch` to the write sink.

Before this module existed each engine re-implemented the lanes and the
report assembly; an engine now only supplies *scheduling policy* — how
lane invocations map onto worker processes + IPC column tuples or onto
asyncio tasks — and everything else
(item normalisation, stats plumbing, report merging) stays in one place,
pinned by one parity suite. Which expiry policy the storage runs is the
storage's business (:meth:`DnsStorage.add_many_columns`), not a lane's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

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
# Every socket- or capture-fed stream source — :class:`repro.netflow.udp
# .UdpFlowSource`, :class:`repro.replay.source.ReplaySource`, the async
# engine's :class:`~repro.core.async_engine.UdpFlowIngest` /
# :class:`~repro.core.async_engine.TcpDnsIngest`, and the multi-process
# :class:`~repro.core.ingest.ReuseportUdpIngest` — implements one
# protocol, so engines and the capture tee never special-case types:
#
# * ``ingest_stats`` — an :class:`IngestStats` of what arrived off the
#   wire, what reached the pipeline, and what was dropped or malformed;
#   :func:`collect_ingest` surfaces it under ``EngineReport.ingest``.
# * ``capture=`` — constructors accept an optional
#   :class:`repro.replay.capture.CaptureWriter`; every received wire
#   unit is recorded *pre-decode* (malformed input included) so a replay
#   reproduces the same counters.
# * ``close()`` — idempotent teardown; a closed source's iteration ends
#   and its sockets/processes are released. Iterating after close is
#   safe and yields nothing.
# * optional ``ingest_errors`` — strings describing partial-ingest
#   failures (e.g. a dead worker process); :func:`collect_ingest` folds
#   them into ``EngineReport.warnings`` so a degraded run warns instead
#   of failing silently.
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
    shadow each other). A source's ``ingest_errors`` strings — partial
    failures like a dead worker process — fold into
    :attr:`EngineReport.warnings`.

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
        for error in getattr(source, "ingest_errors", ()):
            report.warnings.append(str(error))
        # Supervised sources (ReuseportUdpIngest) count worker respawns.
        report.worker_restarts += int(getattr(source, "restarts", 0) or 0)
    for key, stats in report.ingest.items():
        if stats.dropped > 0:
            report.warnings.append(ingest_drop_warning(key, stats))
    report.warnings[:] = dedupe_warnings(report.warnings)


# --- report assembly --------------------------------------------------------

#: The counter keys one worker stack (fillup + lookup + storage) reports.
_SUMMARY_ZEROS = {
    "flows_in": 0,
    "bytes_in": 0,
    "bytes_matched": 0,
    "matched": 0,
    "unmatched": 0,
    "chain_lengths": {},
    "records_in": 0,
    "records_stored": 0,
    "records_invalid": 0,
    "map_entries": 0,
    "overwrites": 0,
    "evictions": 0,
}


def empty_summary(shard_id: int, error: Optional[str]) -> Dict:
    """A zeroed per-stack report, used when a worker dies before reporting."""
    summary: Dict = {"shard": shard_id, "error": error}
    summary.update({k: ({} if isinstance(v, dict) else v) for k, v in _SUMMARY_ZEROS.items()})
    return summary


def stack_summary(
    fillup_processors: Sequence[FillUpProcessor],
    lookup_processors: Sequence[LookUpProcessor],
    storage: DnsStorage,
    shard_id: int = 0,
    error: Optional[str] = None,
) -> Dict:
    """Flatten one worker stack's counters into a plain-dict summary.

    The dict is the engines' lingua franca for report assembly: the
    sharded engine pickles it over IPC, the async engine builds it
    in-process, and :func:`merge_summaries` folds any number of
    them into one :class:`EngineReport`.
    """
    chain_lengths: Dict[int, int] = {}
    for processor in lookup_processors:
        for length, count in processor.stats.chain_lengths.items():
            chain_lengths[length] = chain_lengths.get(length, 0) + count
    return {
        "shard": shard_id,
        "error": error,
        "flows_in": sum(p.stats.flows_in for p in lookup_processors),
        "bytes_in": sum(p.stats.bytes_in for p in lookup_processors),
        "bytes_matched": sum(p.stats.bytes_matched for p in lookup_processors),
        "matched": sum(p.stats.matched for p in lookup_processors),
        "unmatched": sum(p.stats.unmatched for p in lookup_processors),
        "chain_lengths": chain_lengths,
        "records_in": sum(p.stats.records_in for p in fillup_processors),
        "records_stored": sum(p.stats.records_stored for p in fillup_processors),
        "records_invalid": sum(p.stats.invalid for p in fillup_processors),
        "map_entries": storage.total_entries(),
        "overwrites": storage.overwrites(),
        "evictions": storage.evictions(),
    }


def merge_summaries(
    summaries: Sequence[Dict],
    variant_name: str,
    dns_records: Optional[int] = None,
    dns_invalid: Optional[int] = None,
    broadcast_overwrites: bool = False,
) -> EngineReport:
    """Fold worker-stack summaries into one :class:`EngineReport`.

    ``dns_records`` overrides the summed ``records_in`` when the engine
    counted DNS records upstream of the stacks (the sharded engine's
    router counts each record once, while broadcast records re-count in
    every shard); ``dns_invalid`` overrides the summed
    ``records_invalid`` for the same reason (the router's wire filter is
    where sharded decode failures happen). ``broadcast_overwrites=True``
    takes the max overwrite count instead of the sum — with broadcast
    address records every stack observes the same IP-key overwrites, so
    summing would multiply them.
    """
    report = EngineReport(variant_name=variant_name)
    report.total_bytes = sum(s["bytes_in"] for s in summaries)
    report.correlated_bytes = sum(s["bytes_matched"] for s in summaries)
    report.flow_records = sum(s["flows_in"] for s in summaries)
    report.matched_flows = sum(s["matched"] for s in summaries)
    report.dns_records = (
        dns_records
        if dns_records is not None
        else sum(s["records_in"] for s in summaries)
    )
    report.dns_invalid = (
        dns_invalid
        if dns_invalid is not None
        else sum(s["records_invalid"] for s in summaries)
    )
    for summary in summaries:
        for length, count in summary["chain_lengths"].items():
            report.chain_lengths[length] = report.chain_lengths.get(length, 0) + count
    # Resident entries across all stacks: replicated (broadcast) entries
    # genuinely occupy memory in each holding process, so they always sum.
    report.final_map_entries = sum(s["map_entries"] for s in summaries)
    report.evictions = sum(s["evictions"] for s in summaries)
    if broadcast_overwrites:
        report.overwrites = max((s["overwrites"] for s in summaries), default=0)
    else:
        report.overwrites = sum(s["overwrites"] for s in summaries)
    return report


def buffer_loss_rate(buffers: Iterable) -> float:
    """Overall ingress loss across a run's bounded stream buffers."""
    offered = dropped = 0
    for buffer in buffers:
        offered += buffer.stats.offered
        dropped += buffer.stats.dropped
    return dropped / offered if offered else 0.0
