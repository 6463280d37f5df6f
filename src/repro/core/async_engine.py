"""AsyncEngine: the live asyncio FlowDNS pipeline with socket ingest.

The paper's deployed system is a *live* service: routers export
NetFlow/IPFIX over UDP and the ISP resolvers ship DNS responses to the
collectors over TCP, continuously, while correlation keeps up in real
time (Sections 2–3). This engine reproduces that shape inside one
asyncio event loop:

* a :class:`~repro.core.ingest.UdpFlowIngest` binds a nonblocking UDP
  socket registered with the loop via ``add_reader``; one readiness
  wakeup drains *many* datagrams with ``recv_into`` into a reused buffer
  (``recvmmsg``-style bulk reads) instead of paying one callback per
  packet, and the callback does **no decoding** — raw datagrams go
  straight to the bounded buffer, and the engine's lookup lane
  batch-decodes each run of them in one
  :meth:`FlowCollector.ingest_columns_many` call exactly
  like the offline path, so live UDP ingest rides the columnar fast
  lane off the event loop;
* a :class:`~repro.core.ingest.TcpDnsIngest` runs an asyncio server
  speaking RFC 1035 §4.2.2 framing, reassembling messages with
  :class:`TcpFrameDecoder` under arbitrary chunk boundaries and
  timestamping them on arrival;
* both feed bounded buffers (:class:`~repro.core.ingest.AsyncBuffer`)
  whose overflow *drops and counts* — the paper's "streams start to
  drop data" loss point, surfaced per source under
  :attr:`EngineReport.ingest` and in ``overall_loss_rate``;
* plain iterables (records, wire tuples, datagrams, batches) remain
  first-class sources, pumped cooperatively, so the engine also runs
  offline corpora and captures — that is what the parity suites compare
  across batch layouts and against the simulation engine. A ``realtime`` replay
  source is paced in its pump task with ``asyncio.sleep`` and offered
  like socket input (drop and count on overflow), so recorded bursts hit
  the bounded buffers as bursts without stalling the loop;
* any object implementing the ingest-source protocol's live hooks
  (``connect_buffer``/``start``/``stop``; see
  :mod:`repro.core.pipeline`) can serve as a live source; a live flow
  source also carries the ``collector`` its lane decodes through.

The sources live in :mod:`repro.core.ingest` and the lane bodies are
:mod:`repro.core.pipeline`'s :class:`FillLane` and :class:`LookupLane`;
this module owns only the asyncio *scheduling policy*: one pump or
socket server per source, one lane task per buffer, one write task, and
graceful drain-then-shutdown — :meth:`AsyncEngine.request_stop` (safe
from any thread or a signal handler) stops the listeners, every buffered
item still flows through its lane, and the report is assembled only
after the write sink has drained.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.ingest import AsyncBuffer
from repro.core.lookup import LookUpProcessor
from repro.core.metrics import EngineReport
from repro.core.pipeline import (
    FillLane,
    LookupLane,
    buffer_loss_rate,
    buffer_loss_warning,
    collect_ingest,
    is_live_source,
    source_failure_warning,
    stack_report,
)
from repro.core.storage_adapter import DnsStorage
from repro.core.writer import DiscardSink, WriteWorker
from repro.storage.snapshot import load_snapshot, snapshot_document, write_snapshot
from repro.netflow.collector import FlowCollector
from repro.util.errors import ParseError

#: How many items an iterable pump moves before yielding to the loop.
_PUMP_CHUNK = 512


class AsyncEngine:
    """Run FlowDNS inside one asyncio loop, with live socket sources.

    ``run()`` (or ``await run_async()``) accepts iterables of records /
    wire tuples / export datagrams / batches, plus :class:`TcpDnsIngest` (DNS sources) and
    :class:`UdpFlowIngest` (flow sources) for live traffic. A run with
    only finite sources terminates when they drain; a run with live
    listeners keeps serving until :meth:`request_stop`, then drains
    every buffer through its lane before reporting.
    """

    def __init__(
        self,
        config: "Optional[FlowDNSConfig | EngineConfig]" = None,
        sink: Optional[TextIO] = None,
    ):
        self.engine_config = EngineConfig.of(config)
        self.config = self.engine_config.flowdns
        self.storage = DnsStorage(self.config)
        self.sink = sink if sink is not None else DiscardSink()
        #: Created per run, *after* the live listeners bind: the first
        #: thing a WriteWorker does is write the TSV header, and a sink
        #: backed by a real file must stay untouched when the session
        #: dies at bind time.
        self.writer: Optional[WriteWorker] = None
        self._fillup_processors: List[FillUpProcessor] = []
        self._lookup_processors: List[LookUpProcessor] = []
        #: Decode collectors for *finite* flow sources (offline/replay):
        #: their malformed counts are not charged to any ingest stats, so
        #: the report surfaces them as flow_decode_errors. Live sources'
        #: collectors are excluded — their decode failures already land
        #: in the source's own IngestStats via the lane.
        self._flow_collectors: List[FlowCollector] = []
        #: Ingress stream buffers only (the write buffer is not loss-
        #: accounted and lives in run_async's scope).
        self._buffers: List[AsyncBuffer] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stop_pending = False
        #: True once any run has begun: a stop request with no loop to
        #: deliver to latches only before the first run; afterwards it
        #: targets a run that already ended and is dropped.
        self._started = False
        #: ``(buffer_name, exception)`` per source that raised mid-pump.
        self._source_errors: List[Tuple[str, BaseException]] = []
        # Service-lifecycle state (serve --snapshot / --stats-interval /
        # --metrics-port); zeroed per run, readable mid-run.
        self.snapshots_written = 0
        self.restored_entries = 0
        self.metrics_address: Optional[Tuple[str, int]] = None
        self._last_snapshot_monotonic: Optional[float] = None
        self._snapshot_failed = False
        self._service_warnings: List[str] = []

    # --- cross-thread control & observability ---------------------------------

    def request_stop(self) -> None:
        """Begin graceful shutdown; callable from any thread or a signal
        handler, any number of times, at any point in the run's life.

        Idempotent by construction: before the first run exists the
        request is latched (``run_async`` honours it at startup, then
        clears the latch); during a run the stop event is (re-)set,
        which is a no-op once set; and a request arriving after a run
        completed — or racing its completion, the loop closing between
        the ``self._loop`` read and the threadsafe call — is dropped,
        because a finished run needs no stopping (latching would
        silently truncate a reused engine's next run at startup)."""
        loop = self._loop
        if loop is None or self._stop_event is None:
            if not self._started:
                self._stop_pending = True
            return
        try:
            loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:
            # The loop shut down under us: the run is already over, so
            # the request is dropped — deliberately NOT latched, or a
            # reused engine's next run would stop itself at startup.
            pass

    @property
    def dns_records_seen(self) -> int:
        """Records accepted by the fill lane so far (poll-safe)."""
        return sum(p.stats.records_in for p in self._fillup_processors)

    @property
    def flows_seen(self) -> int:
        """Flows correlated by the lookup lane so far (poll-safe)."""
        return sum(p.stats.flows_in for p in self._lookup_processors)

    def snapshot_age(self) -> float:
        """Seconds since the last snapshot write this run (-1: none yet)."""
        if self._last_snapshot_monotonic is None:
            return -1.0
        return time.monotonic() - self._last_snapshot_monotonic

    # --- service lifecycle ------------------------------------------------

    def _restore_on_start(self) -> None:
        """Load the snapshot file into the fresh per-run storage, if any.

        Degrades gracefully by design: a missing file is a cold start, a
        corrupt or config-mismatched snapshot warns and starts empty
        (the restore is all-or-nothing, so a failed load leaves the
        fresh storage untouched) — a service must come up either way.
        """
        path = self.engine_config.snapshot_path
        if not path or not os.path.exists(path):
            return
        try:
            self.restored_entries = load_snapshot(self.storage, path)
        except (ParseError, OSError) as exc:
            self._service_warnings.append(
                f"snapshot restore from {path} failed ({exc}); starting empty"
            )

    async def _write_snapshot(self, loop: asyncio.AbstractEventLoop, path: str) -> None:
        """One crash-safe snapshot write.

        The loop owns the store, so the tier dicts are copied here, on
        the loop; only the encode and the file I/O run in the executor,
        which keeps the lanes serving while the state is written.
        """
        try:
            document = snapshot_document(self.storage)
            write = loop.run_in_executor(None, write_snapshot, document, path)
            try:
                await asyncio.shield(write)
            except asyncio.CancelledError:
                # Teardown cancels the periodic task, then writes the
                # final snapshot through the same temp file: let the
                # write in flight finish first. Its failure, if any, is
                # dropped: the final write reports its own.
                await asyncio.wait([write])
                write.exception()
                raise
            self.snapshots_written += 1
            self._last_snapshot_monotonic = time.monotonic()
            self._snapshot_failed = False
        except (ParseError, OSError) as exc:
            if not self._snapshot_failed:  # warn once per failure streak
                self._service_warnings.append(
                    f"snapshot write to {path} failed: {exc}"
                )
            self._snapshot_failed = True

    async def _snapshot_task(self) -> None:
        loop = asyncio.get_running_loop()
        interval = self.engine_config.snapshot_interval
        path = self.engine_config.snapshot_path
        while True:
            await asyncio.sleep(interval)
            await self._write_snapshot(loop, path)

    def _stats_line(self) -> str:
        storage = self.storage
        dropped = sum(b.stats.dropped for b in self._buffers)
        age = self.snapshot_age()
        age_text = f"{age:.0f}s" if age >= 0 else "n/a"
        return (
            f"[flowdns] dns={self.dns_records_seen} flows={self.flows_seen} "
            f"entries={storage.total_entries()} "
            f"evictions={storage.evictions()} dropped={dropped} "
            f"snapshots={self.snapshots_written} "
            f"snapshot_age={age_text}"
        )

    async def _stats_task(self) -> None:
        interval = self.engine_config.stats_interval
        while True:
            await asyncio.sleep(interval)
            print(self._stats_line(), file=sys.stderr, flush=True)

    # --- scheduling policy ----------------------------------------------------

    async def _pump(self, source: Iterable, buffer: AsyncBuffer) -> None:
        """Move a finite iterable into its buffer, cooperatively.

        At max speed every item takes the backpressuring
        :meth:`AsyncBuffer.put`. A ``realtime`` source's ``paced()`` pairs
        are waited out with ``asyncio.sleep`` — the lanes keep running
        through the gap — and offered with ``try_put``, exactly like a
        socket callback: a recorded burst lands back to back and overflow
        is dropped and counted at the ingress buffer.

        A source that raises mid-stream (a truncated capture file, a
        corrupt export) is recorded — the buffer still closes, everything
        pumped before the failure still drains through its lane, and the
        failure surfaces in :attr:`EngineReport.warnings` instead of
        aborting the run.
        """
        try:
            if getattr(source, "realtime", False):
                for delay, item in source.paced():
                    if delay > 0:
                        await asyncio.sleep(delay)
                    buffer.try_put(item)
            else:
                for count, item in enumerate(source, 1):
                    await buffer.put(item)
                    if count % _PUMP_CHUNK == 0:
                        await asyncio.sleep(0)
        except Exception as exc:
            self._source_errors.append((buffer.name, exc))
        finally:
            buffer.close()

    async def _fill_task(self, buffer: AsyncBuffer, lane: FillLane) -> None:
        batch_size = self.config.engine_batch_size
        while True:
            items = await buffer.get_many(batch_size)
            if not items:
                return
            lane.process_items(items)
            await asyncio.sleep(0)  # let receivers breathe between batches

    async def _lookup_task(
        self, buffer: AsyncBuffer, lane: LookupLane, write_buffer: AsyncBuffer
    ) -> None:
        batch_size = self.config.engine_batch_size
        loop = asyncio.get_running_loop()
        while True:
            items = await buffer.get_many(batch_size)
            if not items:
                return
            correlated = lane.correlate_items(items)
            if correlated is not None:
                await write_buffer.put((correlated, loop.time()))
            await asyncio.sleep(0)

    async def _write_task(self, write_buffer: AsyncBuffer) -> None:
        batch_size = self.config.engine_batch_size
        loop = asyncio.get_running_loop()
        while True:
            items = await write_buffer.get_many(batch_size)
            if not items:
                return
            now = loop.time()
            for correlated, created in items:
                self.writer.write_batch(correlated, delay=now - created)

    # --- orchestration --------------------------------------------------------

    def run(
        self,
        dns_sources: Sequence,
        flow_sources: Sequence,
        dns_first: bool = False,
    ) -> EngineReport:
        """Synchronous wrapper: run the pipeline in a fresh event loop."""
        return asyncio.run(self.run_async(dns_sources, flow_sources, dns_first))

    async def run_async(
        self,
        dns_sources: Sequence,
        flow_sources: Sequence,
        dns_first: bool = False,
    ) -> EngineReport:
        """Run until every finite source drains — and, when live
        listeners are present, until :meth:`request_stop` — then drain
        and report.

        ``dns_first=True`` holds flow pumping back until every *finite*
        DNS source has been stored (the deterministic offline-replay
        barrier; FIFO buffers make storage ordering exact). Live DNS
        listeners are exempt — a service cannot wait for an endless
        stream to finish.
        """
        cfg = self.config
        loop = asyncio.get_running_loop()
        # Fresh event BEFORE the loop is published: a request_stop racing
        # this startup must never pair the new loop with a previous run's
        # (already-set) event, which would silently lose the stop.
        self._stop_event = asyncio.Event()
        self._loop = loop
        if self._stop_pending:
            self._stop_event.set()
            # The latch is consumed by this run; a later run of the same
            # engine starts fresh.
            self._stop_pending = False
        self._started = True
        self._source_errors = []
        # Per-run state: a reused engine must not fold the previous
        # run's processors, stored records, or writer stats into this
        # run's report.
        self._fillup_processors = []
        self._lookup_processors = []
        self._flow_collectors = []
        self.storage = DnsStorage(cfg)
        self.snapshots_written = 0
        self.restored_entries = 0
        self.metrics_address = None
        self._last_snapshot_monotonic = None
        self._snapshot_failed = False
        self._service_warnings = []
        sources = tuple(dns_sources) + tuple(flow_sources)
        self._restore_on_start()

        live_ingests = []
        lane_tasks: List[asyncio.Task] = []
        finite_fill_tasks: List[asyncio.Task] = []
        # The write buffer is internal plumbing, deliberately kept out of
        # self._buffers: only ingress buffers feed loss accounting.
        write_buffer = AsyncBuffer(1 << 30, name="write")
        self._buffers = []

        def make_buffer(name: str, capacity: Optional[int]) -> AsyncBuffer:
            buffer = AsyncBuffer(capacity or cfg.stream_buffer_capacity, name=name)
            self._buffers.append(buffer)
            return buffer

        # DNS lanes: one fill task per source.
        dns_finite: List[Tuple[Iterable, AsyncBuffer]] = []
        for i, source in enumerate(dns_sources):
            processor = FillUpProcessor(self.storage)
            self._fillup_processors.append(processor)
            lane = FillLane(processor)
            if is_live_source(source):
                buffer = make_buffer(f"dns[{i}]", source.capacity)
                source.connect_buffer(buffer)
                await source.start(loop)
                live_ingests.append((source, buffer))
                lane_tasks.append(loop.create_task(self._fill_task(buffer, lane)))
            else:
                buffer = make_buffer(f"dns[{i}]", None)
                dns_finite.append((source, buffer))
                task = loop.create_task(self._fill_task(buffer, lane))
                finite_fill_tasks.append(task)
                lane_tasks.append(task)

        # Flow lanes: one lookup task per source.
        flow_finite: List[Tuple[Iterable, AsyncBuffer]] = []
        for i, source in enumerate(flow_sources):
            processor = LookUpProcessor(self.storage, cfg)
            self._lookup_processors.append(processor)
            if is_live_source(source):
                buffer = make_buffer(f"netflow[{i}]", source.capacity)
                source.connect_buffer(buffer)
                await source.start(loop)
                live_ingests.append((source, buffer))
                # Off-loop decode: the source buffers *raw* datagrams and
                # this lane batch-decodes them through the source's
                # collector, charging malformed input to the source's
                # ingest stats at decode time.
                lane = LookupLane(
                    processor, source.collector, ingest_stats=source.ingest_stats
                )
            else:
                buffer = make_buffer(f"netflow[{i}]", None)
                flow_finite.append((source, buffer))
                collector = FlowCollector()
                self._flow_collectors.append(collector)
                lane = LookupLane(processor, collector)
            lane_tasks.append(
                loop.create_task(self._lookup_task(buffer, lane, write_buffer))
            )

        # Every live listener has bound by here, so the header this
        # writes cannot land in (or truncate) a file for a session that
        # failed at bind time.
        self.writer = WriteWorker(self.sink)
        write_task = loop.create_task(self._write_task(write_buffer))

        # Service surface: periodic snapshots, the stats heartbeat, and
        # the scrape endpoint all start once the session is actually up
        # (listeners bound), and run for offline replays too — a soak
        # through ReplaySource exercises the same lifecycle as live.
        service_tasks: List[asyncio.Task] = []
        metrics_server = None
        if self.engine_config.snapshot_path:
            service_tasks.append(loop.create_task(self._snapshot_task()))
        if self.engine_config.stats_interval > 0:
            service_tasks.append(loop.create_task(self._stats_task()))
        if self.engine_config.metrics_port is not None:
            from repro.core.monitor import MetricsHttpServer, render_async_engine

            metrics_server = MetricsHttpServer(
                lambda: render_async_engine(self, sources),
                port=self.engine_config.metrics_port,
            )
            await metrics_server.start()
            self.metrics_address = metrics_server.address

        # Pump finite sources; optionally barrier DNS before flows.
        dns_pumps = [
            loop.create_task(self._pump(source, buffer))
            for source, buffer in dns_finite
        ]
        if dns_first:
            await asyncio.gather(*dns_pumps)
            await asyncio.gather(*finite_fill_tasks)
        flow_pumps = [
            loop.create_task(self._pump(source, buffer))
            for source, buffer in flow_finite
        ]

        await asyncio.gather(*dns_pumps)
        await asyncio.gather(*flow_pumps)

        if live_ingests:
            # Serve until asked to stop, then close the listeners; what
            # is already buffered still drains through the lanes below.
            await self._stop_event.wait()
            for ingest, _buffer in live_ingests:
                await ingest.stop()
            for _ingest, buffer in live_ingests:
                buffer.close()

        await asyncio.gather(*lane_tasks)
        write_buffer.close()
        await write_task
        # Service teardown: the periodic tasks stop, the endpoint closes,
        # and a final snapshot pins the fully-drained state — a restart
        # from it resumes with everything this run stored.
        for task in service_tasks:
            task.cancel()
        if service_tasks:
            await asyncio.gather(*service_tasks, return_exceptions=True)
        if metrics_server is not None:
            await metrics_server.stop()
        if self.engine_config.snapshot_path:
            await self._write_snapshot(loop, self.engine_config.snapshot_path)
        # Both cleared together: a post-run request_stop must hit the
        # drop path, not set this run's stale (already-set) event while
        # a future run is starting up.
        self._loop = None
        self._stop_event = None

        report = self._build_report()
        collect_ingest(report, sources)
        return report

    def _build_report(self) -> EngineReport:
        report = stack_report(
            self._fillup_processors, self._lookup_processors, self.storage,
            variant_name="async",
        )
        report.flow_decode_errors = sum(
            c.stats.malformed + c.stats.unknown_version
            for c in self._flow_collectors
        )
        report.overall_loss_rate = buffer_loss_rate(self._buffers)
        if report.overall_loss_rate > 0:
            report.warnings.append(buffer_loss_warning(report.overall_loss_rate))
        report.max_write_delay = (
            self.writer.stats.max_delay if self.writer is not None else 0.0
        )
        report.snapshots_written = self.snapshots_written
        report.restored_entries = self.restored_entries
        for name, exc in self._source_errors:
            report.warnings.append(source_failure_warning(name, exc))
        report.warnings.extend(self._service_warnings)
        return report
