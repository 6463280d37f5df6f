"""ShardedEngine: FlowDNS across worker processes (per-core scaling).

The paper's Go implementation reaches ~1M records/s by spreading workers
over 128 cores against sharded shared maps. CPython threads cannot
scale past one core — the GIL serialises every worker — so this engine
escapes it with *processes*: the DNS storage is partitioned by
lookup-IP hash across N shards, each shard process owning a complete
FillUp/LookUp/storage stack for its slice of the address space. The
parent routes record batches to shards over IPC and merges the per-shard
counters into one :class:`EngineReport`.

Each shard drives the processors' columnar entries
(``process_columns``, ``correlate_batch_columns``) on what the router
sends it; item normalisation and summary/report assembly come from
:mod:`repro.core.pipeline`, shared with the async engine.
This module owns only the *scheduling policy*: process fan-out, hash
routing, and the batched IPC framing.

Routing invariants (what makes the partition correct):

* A/AAAA records go to the shard that owns their *answer* IP — the same
  hash a flow's lookup IP routes by, so fill and lookup always meet;
* CNAME records are broadcast to every shard: chains are name-keyed and
  may be walked starting from any IP shard;
* flows route by their direction-selected lookup IP. With
  ``FlowDirection.BOTH`` a single flow would need two shards, so that
  mode broadcasts the address records instead — every shard can then
  match either endpoint locally.

IPC is batched (``engine_batch_size`` records per message): a
``multiprocessing.Queue`` pays a pickle plus a pipe write per message,
which at one record per message would dwarf the correlation work itself.
Flow batches additionally cross as *flat primitive columns*
(``FlowBatch.columns()`` — one tuple of lists of floats/ints/strings per
batch) rather than pickled ``FlowRecord`` graphs, so serialisation cost
is per-scalar, not per-object.
Input queues are bounded so a slow shard applies backpressure to the
router instead of buffering the whole input in memory. There are no
bounded drop-counting ingress buffers in this engine, so
``overall_loss_rate`` is always 0 — loss modelling stays with the
async and simulation engines.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.labeler import ip_label
from repro.core.lookup import LookUpProcessor
from repro.core.metrics import EngineReport
from repro.core.pipeline import (
    collect_ingest,
    dns_item_records,
    empty_summary,
    extend_flow_batch,
    merge_summaries,
    source_failure_warning,
    stack_summary,
)
from repro.core.storage_adapter import DnsStorage
from repro.core.writer import HEADER, format_batch
from repro.dns.columnar import DnsBatch, decode_fill_columns
from repro.dns.rr import RRType
from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowBatch, FlowDirection
from repro.util.errors import ConfigError

#: Message kinds on the shard input/output queues.
_DNS = 0
_ROWS = 1
_REPORT = 2
#: A flow batch as flat primitive columns (``FlowBatch.columns()``): the
#: columnar lane's IPC payload — one tuple of lists per batch, no object
#: graph for pickle to walk.
_FLOW_COLS = 3
#: A DNS batch as flat primitive columns (``DnsBatch.columns()``): the
#: fill lane's columnar IPC payload. The router decodes wire payloads
#: once, partitions the rows by answer hash, and ships per-shard column
#: tuples whose message counters are zero — the router already counted
#: messages/invalid/unknowns, shards only store rows.
_DNS_COLS = 4

#: Bounded batches buffered per shard input queue (backpressure depth).
_QUEUE_DEPTH = 16

#: The raw wire value the columnar rtype column stores for CNAME rows.
_CNAME_TYPE = int(RRType.CNAME)


def _shard_worker(shard_id, config, in_queue, out_queue, want_rows) -> None:
    """One shard process: a private processor stack fed by batch messages.

    Runs until the ``None`` sentinel, then reports its counters. Any
    exception is reported back instead of hanging the parent.
    """
    storage = DnsStorage(config)
    fillup = FillUpProcessor(storage)
    lookup = LookUpProcessor(storage, config)
    error: Optional[str] = None
    try:
        while True:
            message = in_queue.get()
            if message is None:
                break
            kind, batch = message
            if kind == _DNS:
                fillup.process_batch(batch)
            elif kind == _DNS_COLS:
                fillup.process_columns(DnsBatch.from_columns(batch))
            else:  # _FLOW_COLS
                correlated = lookup.correlate_batch_columns(FlowBatch.from_columns(batch))
                if want_rows:
                    out_queue.put((_ROWS, format_batch(correlated)))
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        # Keep draining until the sentinel: the input queue is bounded, so
        # abandoning it would block the parent's routers forever.
        while in_queue.get() is not None:
            pass
    out_queue.put((_REPORT, stack_summary(
        [fillup], [lookup], storage, shard_id=shard_id, error=error
    )))


class _BatchRouter:
    """Per-source-thread batch accumulator over the shard input queues.

    Each router is owned by exactly one parent thread, so the pending
    buffers need no locking; only the (thread-safe) mp queues are shared.
    Puts poll with a timeout against ``shard_alive`` so a dead shard
    process (whose bounded queue stays full forever) cannot wedge the
    router — its batches are dropped and the drain loop reports the death.
    """

    def __init__(
        self,
        queues: Sequence,
        batch_size: int,
        shard_alive: Optional[Callable[[int], bool]] = None,
    ):
        self._queues = queues
        self._batch_size = batch_size
        self._shard_alive = shard_alive
        self._pending: List[List] = [[] for _ in queues]
        self._dead = [False] * len(queues)

    def _put(self, shard: int, payload) -> None:
        if self._dead[shard]:
            return
        while True:
            if self._shard_alive is not None and not self._shard_alive(shard):
                # Shard died; latch and drop — the drain loop reports it.
                self._dead[shard] = True
                return
            try:
                self._queues[shard].put(payload, timeout=1.0)
                return
            except queue_mod.Full:
                continue

    def send(self, shard: int, payload) -> None:
        """Put one already-assembled message (e.g. a column tuple)."""
        self._put(shard, payload)

    def route(self, kind: int, shard: int, record) -> None:
        pending = self._pending[shard]
        pending.append(record)
        if len(pending) >= self._batch_size:
            self._put(shard, (kind, pending))
            self._pending[shard] = []

    def broadcast(self, kind: int, record) -> None:
        for shard in range(len(self._queues)):
            self.route(kind, shard, record)

    def flush(self, kind: int) -> None:
        for shard, pending in enumerate(self._pending):
            if pending:
                self._put(shard, (kind, pending))
                self._pending[shard] = []

    def close(self, shard: int) -> None:
        self._put(shard, None)


class ShardedEngine:
    """Run FlowDNS across ``num_shards`` worker processes."""

    def __init__(
        self,
        config: Optional[FlowDNSConfig | EngineConfig] = None,
        sink: Optional[TextIO] = None,
        num_shards: Optional[int] = None,
    ):
        self.engine_config = EngineConfig.of(config)
        self.config = self.engine_config.flowdns
        self.sink = sink
        # Explicit num_shards wins over the config's; neither → one shard
        # per core, the paper's deployment default.
        if num_shards is None:
            num_shards = self.engine_config.shards
        shards = num_shards if num_shards is not None else mp.cpu_count()
        if shards < 1:
            raise ConfigError("num_shards must be at least 1")
        self.num_shards = shards
        self._dns_records_seen = 0
        # Router-side decode accounting: the wire filter and the flow
        # collectors live in the parent's routing threads, not the
        # shards, so their failure counts must be accumulated here to
        # reach the report (dns_invalid / flow_decode_errors).
        self._dns_invalid = 0
        self._flow_decode_errors = 0
        self._dns_count_lock = threading.Lock()

    # --- parent-side routing --------------------------------------------------

    def _route_dns(self, source: Iterable, router: _BatchRouter) -> None:
        """Feed one DNS source: filter, count, and shard its records.

        Wire payloads take the columnar lane: batches of raw payloads
        decode once (in the router, where the wire filter has always
        lived) via :func:`decode_fill_columns`, rows partition into
        per-shard :class:`DnsBatch` accumulators by the same answer
        hash the record path routes on (CNAME rows broadcast — chains
        are name-keyed and may be walked from any shard), and each full
        accumulator crosses IPC as one flat column tuple. Non-wire
        items (records, decoded messages) keep the object path; runs
        flush on kind switches so every shard queue preserves arrival
        order.
        """
        broadcast_addresses = self.config.direction is FlowDirection.BOTH
        num_shards = self.num_shards
        cname_type = _CNAME_TYPE
        batch_size = self.config.engine_batch_size
        # A storage-less processor gives us the same wire filter the
        # other engines apply; it only ever touches its stats here.
        dns_filter = FillUpProcessor(storage=None)
        payloads: List = []
        stamps: List[float] = []
        pending_cols = [DnsBatch() for _ in range(num_shards)]
        seen = 0

        def flush_columns() -> None:
            """Decode the pending wire run and partition its rows."""
            nonlocal seen
            if not payloads:
                return
            batch = decode_fill_columns(payloads, stamps)
            payloads.clear()
            stamps.clear()
            seen += len(batch)
            # The router is where the wire filter lives; its stats stay
            # truthful whichever decode path a run takes.
            stats = dns_filter.stats
            stats.raw_messages += batch.messages
            stats.invalid += batch.invalid
            stats.records_unknown_type += batch.unknown_records
            rtypes = batch.rtype
            answers = batch.rdata_text
            for i in range(len(rtypes)):
                if rtypes[i] == cname_type or broadcast_addresses:
                    targets = range(num_shards)
                else:
                    targets = (ip_label(answers[i]) % num_shards,)
                for shard in targets:
                    accumulator = pending_cols[shard]
                    accumulator.append_from(batch, i)
                    if len(accumulator) >= batch_size:
                        router.send(shard, (_DNS_COLS, accumulator.columns()))
                        pending_cols[shard] = DnsBatch()

        def ship_partials() -> None:
            """Send every non-empty per-shard accumulator."""
            for shard, accumulator in enumerate(pending_cols):
                if len(accumulator):
                    router.send(shard, (_DNS_COLS, accumulator.columns()))
                    pending_cols[shard] = DnsBatch()

        try:
            for item in source:
                if (
                    type(item) is tuple
                    and len(item) == 2
                    and isinstance(item[1], (bytes, bytearray, memoryview))
                ):
                    # Entering a wire run: object-path batches already
                    # routed must hit the queues first (order matters for
                    # overwrites and clear-up boundaries).
                    router.flush(_DNS)
                    stamps.append(item[0])
                    payloads.append(item[1])
                    if len(payloads) >= batch_size:
                        flush_columns()
                    continue
                flush_columns()
                ship_partials()
                for record in dns_item_records(item, dns_filter):
                    seen += 1
                    if record.is_cname or (record.is_address and broadcast_addresses):
                        router.broadcast(_DNS, record)
                    elif record.is_address:
                        router.route(_DNS, ip_label(record.answer) % num_shards, record)
                    # Other record types are counted (parity with the async
                    # engine's records_in) but never stored — no IPC for them.
        finally:
            # Also on a raising source: records already routed must reach
            # their shards, and the router-side count stays truthful.
            flush_columns()
            ship_partials()
            router.flush(_DNS)
            with self._dns_count_lock:
                self._dns_records_seen += seen
                self._dns_invalid += dns_filter.stats.invalid

    def _route_flows(self, source: Iterable, router: _BatchRouter) -> None:
        """Feed one flow source: decode to columns and shard by lookup IP.

        The columnar lane: datagrams decode via ``ingest_columns``, rows
        partition into per-shard :class:`FlowBatch` accumulators keyed on
        the direction-selected interned IP *text* (``ip_label`` hashes the
        canonical text, which is also what the DNS side keys on, so the
        partition matches), and each full accumulator crosses IPC as one flat column
        tuple — pickle never walks a record object graph.
        """
        direction = self.config.direction
        use_src = direction in (FlowDirection.SOURCE, FlowDirection.BOTH)
        num_shards = self.num_shards
        batch_size = self.config.engine_batch_size
        collector = FlowCollector()
        pending = [FlowBatch() for _ in range(num_shards)]

        try:
            for item in source:
                # The same item normalisation every lookup lane uses, one
                # stream item at a time so routing interleaves with decode
                # (whole batches route in place, no intermediate copy).
                if isinstance(item, FlowBatch):
                    batch = item
                else:
                    batch = FlowBatch()
                    extend_flow_batch(batch, item, collector)
                keys = batch.src_ip_text if use_src else batch.dst_ip_text
                for i in range(len(batch)):
                    shard = ip_label(keys[i]) % num_shards
                    accumulator = pending[shard]
                    accumulator.append_from(batch, i)
                    if len(accumulator) >= batch_size:
                        router.send(shard, (_FLOW_COLS, accumulator.columns()))
                        pending[shard] = FlowBatch()
        finally:
            # Also on a raising source: rows already routed into the
            # accumulators were received before the failure and must
            # reach their shards, like the other engines' buffers.
            for shard, accumulator in enumerate(pending):
                if len(accumulator):
                    router.send(shard, (_FLOW_COLS, accumulator.columns()))
            with self._dns_count_lock:
                self._flow_decode_errors += (
                    collector.stats.malformed + collector.stats.unknown_version
                )

    def _drain_output(self, out_queue, reports: List[Dict], workers) -> None:
        """Write result rows as they arrive; stop after every shard reports.

        A shard process that dies without reporting (OOM kill, hard crash)
        gets a synthetic error report so the run fails loudly instead of
        hanging on a report that will never come.
        """
        def handle(kind, payload) -> None:
            if kind == _REPORT:
                reports.append(payload)
            elif self.sink is not None:
                for row in payload:
                    self.sink.write(row)

        while len(reports) < self.num_shards:
            try:
                kind, payload = out_queue.get(timeout=1.0)
            except queue_mod.Empty:
                # Close the report-in-flight window before declaring a
                # death: a shard may have flushed its report to the pipe
                # in the instant the blocking get timed out.
                try:
                    while True:
                        kind, payload = out_queue.get_nowait()
                        handle(kind, payload)
                except queue_mod.Empty:
                    pass
                reported = {r["shard"] for r in reports}
                for shard, worker in enumerate(workers):
                    if shard in reported:
                        continue
                    if worker.ident is not None and not worker.is_alive():
                        reports.append(empty_summary(
                            shard,
                            f"shard process died without reporting "
                            f"(exitcode {worker.exitcode})",
                        ))
                continue
            handle(kind, payload)

    # --- orchestration --------------------------------------------------------

    def run(
        self,
        dns_sources: Sequence[Iterable],
        flow_sources: Sequence[Iterable],
        dns_first: bool = False,
    ) -> EngineReport:
        """Run the sharded pipeline until every source is drained.

        By default DNS and flow sources are routed concurrently, one
        thread per source, so mid-stream matching is timing dependent.
        With ``dns_first=True`` every DNS batch is enqueued before any
        flow routing starts; each shard's input queue is FIFO,
        so all DNS records are stored before the first flow correlates —
        the deterministic offline-replay mode the CLI uses.
        """
        ctx = mp.get_context()
        in_queues = [ctx.Queue(maxsize=_QUEUE_DEPTH) for _ in range(self.num_shards)]
        out_queue = ctx.Queue()
        want_rows = self.sink is not None
        if want_rows:
            self.sink.write(HEADER)
        workers = [
            ctx.Process(
                target=_shard_worker,
                args=(i, self.config, in_queues[i], out_queue, want_rows),
                daemon=True,
            )
            for i in range(self.num_shards)
        ]
        for worker in workers:
            worker.start()

        self._dns_records_seen = 0
        self._dns_invalid = 0
        self._flow_decode_errors = 0
        batch_size = self.config.engine_batch_size

        def shard_alive(shard: int) -> bool:
            return workers[shard].is_alive()

        source_errors: List[Tuple[str, BaseException]] = []

        def spawn(target, source, name):
            router = _BatchRouter(in_queues, batch_size, shard_alive=shard_alive)

            def body():
                try:
                    target(source, router)
                except Exception as exc:
                    # A failing source ends its routing thread; whatever
                    # was routed before the failure still correlates, and
                    # the failure surfaces in EngineReport.warnings (same
                    # contract as the async engine).
                    source_errors.append((name, exc))

            return threading.Thread(target=body, daemon=True)

        dns_threads = [
            spawn(self._route_dns, src, f"dns[{i}]")
            for i, src in enumerate(dns_sources)
        ]
        flow_threads = [
            spawn(self._route_flows, src, f"netflow[{i}]")
            for i, src in enumerate(flow_sources)
        ]

        reports: List[Dict] = []
        drain = threading.Thread(
            target=self._drain_output,
            args=(out_queue, reports, workers),
            daemon=True,
        )
        drain.start()

        if dns_first:
            # Phase barrier: every DNS batch (including the final partial
            # flushes) is on the shard queues before flow routing begins.
            for thread in dns_threads:
                thread.start()
            for thread in dns_threads:
                thread.join()
            for thread in flow_threads:
                thread.start()
        else:
            for thread in dns_threads + flow_threads:
                thread.start()
        for thread in dns_threads + flow_threads:
            thread.join()
        sentinel_router = _BatchRouter(in_queues, 1, shard_alive=shard_alive)
        for shard in range(self.num_shards):
            sentinel_router.close(shard)
        drain.join()
        for worker in workers:
            worker.join(timeout=30.0)
            if worker.is_alive():  # pragma: no cover - defensive cleanup
                worker.terminate()
        for in_queue in in_queues:
            # A dead shard leaves undelivered batches in its queue; without
            # this, the queue's feeder thread blocks interpreter exit
            # trying to flush a pipe nobody will ever read.
            in_queue.cancel_join_thread()
            in_queue.close()

        failures = [r["error"] for r in reports if r.get("error")]
        if failures:
            raise RuntimeError(f"shard worker failed: {failures[0]}")
        report = merge_summaries(
            reports,
            variant_name="sharded",
            dns_records=self._dns_records_seen,
            dns_invalid=self._dns_invalid,
            # Address records are broadcast in BOTH mode, so every shard
            # observes the same IP-key overwrites; summing would multiply
            # the count by num_shards.
            broadcast_overwrites=self.config.direction is FlowDirection.BOTH,
        )
        report.flow_decode_errors = self._flow_decode_errors
        report.overall_loss_rate = 0.0
        for name, exc in source_errors:
            report.warnings.append(source_failure_warning(name, exc))
        collect_ingest(report, list(dns_sources) + list(flow_sources))
        return report
