"""ThreadedEngine: the live, multi-threaded FlowDNS pipeline (Figure 1).

Faithful to the paper's worker architecture:

* one receiver thread per stream pumps records into that stream's bounded
  internal buffer (Section 2's loss point);
* FillUp workers per DNS stream pop, filter, and fill the shared storage;
* LookUp workers per Netflow stream pop, correlate, and enqueue results;
* Write workers drain the write queue to the output sink.

The lane bodies — item normalisation, batch accumulation, the columnar
decode→correlate path, report assembly — live in
:mod:`repro.core.pipeline`, shared with the sharded and async engines.
What remains here is this engine's *scheduling policy*: real threads
over bounded buffers, draining in batches (``engine_batch_size`` records
per wake-up) so the lock round-trip per stage is paid once per batch
rather than once per record — the Python analogue of the Go
implementation's amortised worker loops.

This engine measures real concurrency behaviour — buffer loss, lock
contention, queueing delay — at Python-scale record rates. The paper's
1M records/s is out of reach for CPython (the calibration band for this
reproduction says so explicitly); deployment-scale resource figures come
from :class:`repro.core.simulation.SimulationEngine` instead.

Stream items may be:

* DNS streams — :class:`DnsRecord`, or ``(ts, wire_bytes)``, or
  ``(ts, DnsMessage)`` tuples (the filter handles validation);
* Netflow streams — :class:`FlowRecord`, a whole :class:`FlowBatch`, or
  raw export datagrams (``bytes``), decoded by a per-stream
  :class:`FlowCollector`. Whatever the item type, the lookup lane runs
  columnar: decode→correlate touches only :class:`FlowBatch` columns and
  per-record objects are never materialised.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, List, Optional, Sequence, TextIO

from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import LookUpProcessor
from repro.core.metrics import EngineReport
from repro.core.pipeline import (
    POP_TIMEOUT,
    FillLane,
    LookupLane,
    buffer_loss_rate,
    buffer_loss_warning,
    collect_ingest,
    drain_buffer,
    gated_flow_source,
    merge_summaries,
    source_failure_warning,
    stack_summary,
)
from repro.core.storage_adapter import DnsStorage
from repro.core.writer import DiscardSink, WriteWorker
from repro.netflow.collector import FlowCollector
from repro.streams.queues import WorkerQueue
from repro.streams.stream import RecordStream

__all__ = ["ThreadedEngine", "gated_flow_source"]

_POP_TIMEOUT = POP_TIMEOUT


class ThreadedEngine:
    """Run FlowDNS with real threads over finite stream sources."""

    def __init__(
        self,
        config: Optional[FlowDNSConfig | EngineConfig] = None,
        sink: Optional[TextIO] = None,
    ):
        # Accepts either a bare FlowDNSConfig (correlator knobs only) or
        # a full EngineConfig (runtime knobs too) — EngineConfig.of
        # normalises so embedders and the CLI construct engines uniformly.
        self.engine_config = EngineConfig.of(config)
        self.config = self.engine_config.flowdns
        self.storage = DnsStorage(self.config)
        self.sink = sink if sink is not None else DiscardSink()
        self._fillup_processors: List[FillUpProcessor] = []
        self._lookup_processors: List[LookUpProcessor] = []
        #: One decode collector per flow stream; kept so the report can
        #: surface decode failures (malformed/unknown-version datagrams)
        #: that are not charged to any live source's ingest stats.
        self._flow_collectors: List[FlowCollector] = []
        self.dns_streams: List[RecordStream] = []
        self.flow_streams: List[RecordStream] = []
        self.writer = WriteWorker(self.sink)
        self._writer_lock = threading.Lock()
        self._fillup_threads: Optional[List[threading.Thread]] = None

    @property
    def fillup_complete(self) -> bool:
        """True once every FillUp worker has drained its stream and exited.

        Flow sources that want deterministic matching (offline replays,
        tests) can poll this before yielding their first record. Gating
        alone makes *match outcomes* reproducible; byte-identical rows
        additionally need ``fillup_workers_per_stream=1`` — concurrent
        fill workers apply same-IP overwrites in scheduling order, so
        which announcing name wins is otherwise a race. False until
        run() has set its workers up; vacuously true for a run with no
        DNS sources.
        """
        threads = self._fillup_threads
        if threads is None:
            return False
        # is_alive() is False for a thread that has not started yet, so a
        # worker only counts as done once it has an ident (i.e. ran).
        return all(t.ident is not None and not t.is_alive() for t in threads)

    # --- worker bodies --------------------------------------------------------

    def _receiver(self, stream: RecordStream) -> None:
        """Pump a source into its bounded buffer until exhaustion."""
        try:
            while not stream.exhausted:
                stream.pump(1024)
        except Exception:
            # pump() has already closed the buffer and recorded the
            # exception on stream.error; run() surfaces it as a report
            # warning instead of letting a daemon thread die noisily.
            pass

    def _fillup_worker(self, stream: RecordStream, lane: FillLane) -> None:
        """Drain the DNS buffer in batches through the shared fill lane."""
        drain_buffer(
            stream.buffer, self.config.engine_batch_size,
            lane.process_items, timeout=_POP_TIMEOUT,
        )

    def _lookup_worker(
        self,
        stream: RecordStream,
        lane: LookupLane,
        write_queue: WorkerQueue,
    ) -> None:
        """Drain the flow buffer through the columnar decode→correlate lane.

        One :class:`CorrelationBatch` is enqueued per wake-up as a single
        write item — no per-flow record/result objects anywhere.
        """

        def handle(items: List) -> None:
            correlated = lane.correlate_items(items)
            if correlated is not None:
                write_queue.push((correlated, time.monotonic()))

        drain_buffer(
            stream.buffer, self.config.engine_batch_size,
            handle, timeout=_POP_TIMEOUT,
        )

    def _write_worker(self, write_queue: WorkerQueue) -> None:
        def handle(items: List) -> None:
            now = time.monotonic()
            with self._writer_lock:
                for correlated, created_monotonic in items:
                    self.writer.write_batch(correlated, delay=now - created_monotonic)

        drain_buffer(
            write_queue, self.config.engine_batch_size, handle, timeout=_POP_TIMEOUT
        )

    # --- orchestration -----------------------------------------------------------

    def run(
        self,
        dns_sources: Sequence[Iterable],
        flow_sources: Sequence[Iterable],
    ) -> EngineReport:
        """Run the full pipeline until every source is drained."""
        cfg = self.config
        self.dns_streams = [
            RecordStream(f"dns[{i}]", src, capacity=cfg.stream_buffer_capacity)
            for i, src in enumerate(dns_sources)
        ]
        self.flow_streams = [
            RecordStream(f"netflow[{i}]", src, capacity=cfg.stream_buffer_capacity)
            for i, src in enumerate(flow_sources)
        ]
        write_queue = WorkerQueue("write")

        threads: List[threading.Thread] = []

        def spawn(target, *args) -> None:
            t = threading.Thread(target=target, args=args, daemon=True)
            threads.append(t)

        for stream in self.dns_streams + self.flow_streams:
            spawn(self._receiver, stream)

        fillup_threads: List[threading.Thread] = []
        for stream in self.dns_streams:
            for _ in range(cfg.fillup_workers_per_stream):
                processor = FillUpProcessor(self.storage)
                self._fillup_processors.append(processor)
                lane = FillLane(processor)
                t = threading.Thread(
                    target=self._fillup_worker, args=(stream, lane), daemon=True
                )
                fillup_threads.append(t)
                threads.append(t)
        self._fillup_threads = fillup_threads

        lookup_threads: List[threading.Thread] = []
        self._flow_collectors = []
        for stream in self.flow_streams:
            collector = FlowCollector()
            self._flow_collectors.append(collector)
            for _ in range(cfg.lookup_workers_per_stream):
                processor = LookUpProcessor(self.storage, cfg)
                self._lookup_processors.append(processor)
                lane = LookupLane(processor, collector)
                t = threading.Thread(
                    target=self._lookup_worker,
                    args=(stream, lane, write_queue),
                    daemon=True,
                )
                lookup_threads.append(t)
                threads.append(t)

        write_threads: List[threading.Thread] = []
        for _ in range(cfg.write_workers):
            t = threading.Thread(target=self._write_worker, args=(write_queue,), daemon=True)
            write_threads.append(t)
            threads.append(t)

        for t in threads:
            t.start()
        for t in fillup_threads + lookup_threads:
            t.join()
        write_queue.close()
        for t in write_threads:
            t.join()

        report = self._build_report()
        for stream in self.dns_streams + self.flow_streams:
            if stream.error is not None:
                report.warnings.append(
                    source_failure_warning(stream.name, stream.error)
                )
        collect_ingest(report, list(dns_sources) + list(flow_sources))
        return report

    def _build_report(self) -> EngineReport:
        summary = stack_summary(
            self._fillup_processors, self._lookup_processors, self.storage
        )
        report = merge_summaries([summary], variant_name="threaded")
        report.flow_decode_errors = sum(
            c.stats.malformed + c.stats.unknown_version
            for c in self._flow_collectors
        )
        report.overall_loss_rate = buffer_loss_rate(
            s.buffer for s in self.dns_streams + self.flow_streams
        )
        if report.overall_loss_rate > 0:
            report.warnings.append(buffer_loss_warning(report.overall_loss_rate))
        report.max_write_delay = self.writer.stats.max_delay
        return report
