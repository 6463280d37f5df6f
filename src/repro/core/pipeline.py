"""The lane-side pieces of the live engine that are not scheduling.

The live engine (:class:`repro.core.async_engine.AsyncEngine`, one
asyncio loop) runs the two lanes from the paper's Figure 1:

* the **fill lane** (DNS) folds a wake-up's stream items (``(ts, wire)``
  responses, or :class:`DnsRecord` objects) into one
  :class:`~repro.dns.columnar.DnsBatch` with :func:`dns_items_to_batch`
  — wire runs go through the selective columnar decoder — and stores its
  columns in one ``process_columns`` call;
* the **lookup lane** (NetFlow) folds a wake-up's items (raw export
  datagrams or :class:`FlowRecord` objects) into one columnar batch with
  :func:`flow_items_to_batch`, correlates it, and hands the resulting
  :class:`CorrelationBatch` to the write sink.

The engine module owns how those lanes map onto asyncio tasks. This
module holds what they share with the rest of the package: item
normalisation, the ingest-source protocol, the report warnings and the
loss accounting. Which expiry policy the storage runs is the storage's
business (:meth:`DnsStorage.add_many_columns`), not a lane's.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.metrics import EngineReport, IngestStats, dedupe_warnings
from repro.dns.columnar import DnsBatch, decode_fill_columns
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

#: The payload types a ``(ts, payload)`` DNS item may carry.
_WIRE_TYPES = (bytes, bytearray, memoryview)


def dns_items_to_batch(items: Iterable) -> DnsBatch:
    """Accumulate a drained wake-up's items into one :class:`DnsBatch`.

    Rows keep arrival order. Runs of ``(ts, wire)`` items batch-decode
    through :func:`decode_fill_columns`; a :class:`DnsRecord` appends
    as a row (or counts as skipped, see :meth:`DnsBatch.append_record`).
    Any other item — ``(ts, x)`` with ``x`` not wire bytes included —
    counts as one invalid message, as unparseable bytes do.
    """
    batch = DnsBatch()
    payloads: List = []
    stamps: List[float] = []
    for item in items:
        if type(item) is tuple and len(item) == 2 and isinstance(item[1], _WIRE_TYPES):
            stamps.append(item[0])
            payloads.append(item[1])
            continue
        if payloads:
            batch.extend(decode_fill_columns(payloads, stamps))
            payloads = []
            stamps = []
        if isinstance(item, DnsRecord):
            batch.append_record(item)
        else:
            batch.messages += 1
            batch.invalid += 1
    if payloads:
        batch.extend(decode_fill_columns(payloads, stamps))
    return batch


def flow_items_to_batch(items: Iterable, collector: FlowCollector) -> FlowBatch:
    """Accumulate a drained wake-up's items into one :class:`FlowBatch`.

    Rows keep arrival order. Each run of raw export datagrams decodes
    in one :meth:`FlowCollector.ingest_columns_many` call through the
    (stateful, template-holding) ``collector``; a :class:`FlowRecord`
    appends as a row. Unknown item types are ignored, matching the
    engines' historical tolerance.
    """
    batch = FlowBatch()
    datagrams: List[bytes] = []
    for item in items:
        if isinstance(item, (bytes, bytearray)):
            datagrams.append(bytes(item))
            continue
        if datagrams:
            batch.extend(collector.ingest_columns_many(datagrams))
            datagrams = []
        if isinstance(item, FlowRecord):
            batch.append_record(item)
    if datagrams:
        if not len(batch):
            return collector.ingest_columns_many(datagrams)
        batch.extend(collector.ingest_columns_many(datagrams))
    return batch


# --- report warnings ----------------------------------------------------


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


def buffer_loss_rate(buffers: Iterable) -> float:
    """Overall ingress loss across a run's bounded stream buffers."""
    offered = dropped = 0
    for buffer in buffers:
        offered += buffer.stats.offered
        dropped += buffer.stats.dropped
    return dropped / offered if offered else 0.0
