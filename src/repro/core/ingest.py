"""Multi-process UDP socket sharding via SO_REUSEPORT.

One socket on one event loop tops out at one core's worth of receive +
decode. The paper's collectors scale past that the way production
collectors do: *N sockets bound to the same port* with ``SO_REUSEPORT``,
so the kernel load-balances export datagrams across N worker processes
by flow hash — each exporter's (src, dst) 4-tuple consistently lands on
the same worker, which keeps per-worker NetFlow v9/IPFIX template
state coherent without any cross-process coordination.

:class:`ReuseportUdpIngest` runs one receive + decode stack per worker
process (bulk ``recv_into`` drains, batched
:meth:`~repro.netflow.collector.FlowCollector.ingest_columns_many`
decode) and ships ready-made :class:`FlowBatch` items to the parent as
flat column tuples (:meth:`FlowBatch.columns`) over a bounded queue, so
pickle never walks a record object graph and the parent never
re-decodes.

The source implements the ingest-source protocol
(:mod:`repro.core.pipeline`): hand it to the async engine as a live
source (``connect_buffer``/``start``/``stop``). Per-worker
:class:`IngestStats` merge into one source-level view
(:func:`repro.core.metrics.merge_ingest_stats`), and a worker that dies
mid-ingest surfaces as an :attr:`ingest_errors` warning on the report —
the run degrades loudly instead of hanging.

**Supervision** (``supervise=True``, the default): a worker that dies
without its stats sentinel — segfault, OOM kill, unhandled error — is
respawned on the same port with capped exponential backoff, and the
:attr:`restarts` counter records each respawn. Stats are kept per worker
*generation*, so the merged counters keep summing across a respawn
instead of resetting. When the whole source exceeds its restart budget
(``max_restarts`` within ``restart_window`` seconds) the failing slot is
abandoned and the source degrades to the surviving workers, loudly:
every death, respawn, and abandonment lands in :attr:`ingest_errors`
and from there in ``EngineReport.warnings``.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import select
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import DEFAULT_RECV_BUFFER_BYTES
from repro.core.metrics import IngestStats, merge_ingest_stats
from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowBatch
from repro.netflow.udp import MAX_DATAGRAM, bind_udp_socket, set_recv_buffer
from repro.util.errors import ConfigError

#: Message tags on the worker output queue.
_READY = "ready"
_COLS = "cols"
_STATS = "stats"
_ERROR = "error"

#: Bounded worker→parent queue depth (column batches in flight).
_QUEUE_DEPTH = 64


def _ingest_worker(
    wid: int,
    host: str,
    port: int,
    reuseport: bool,
    out_queue,
    stop_event,
    batch_rows: int,
    recv_buffer_bytes: int,
    max_recv_per_wakeup: int,
    poll_interval: float,
) -> None:
    """One socket-sharding worker: recv → decode → columns over IPC.

    The loop is the async engine's batched socket layer without the
    event loop: wait for readability (bounded, so the stop event is
    polled), bulk-drain the kernel queue with ``recv_into``, batch-decode
    the drained datagrams, and flush the accumulating :class:`FlowBatch`
    once it reaches ``batch_rows`` (or on idle, bounding latency). The
    final message is always this worker's :class:`IngestStats` — the
    parent's merge/accounting sentinel.
    """
    try:
        sock = bind_udp_socket((host, port), reuseport=reuseport)
    except (OSError, ConfigError) as exc:
        out_queue.put((_ERROR, wid, f"{type(exc).__name__}: {exc}"))
        return
    stats = IngestStats(name=f"udp-worker[{wid}]")
    try:
        sock.setblocking(False)
        stats.recv_buffer_bytes = set_recv_buffer(sock, recv_buffer_bytes)
        out_queue.put((_READY, wid, sock.getsockname()[1], stats.recv_buffer_bytes))
        collector = FlowCollector()
        cstats = collector.stats
        view = memoryview(bytearray(MAX_DATAGRAM))
        batch = FlowBatch()
        pending_datagrams = 0

        def flush() -> None:
            nonlocal batch, pending_datagrams
            if not pending_datagrams:
                return
            if len(batch):
                try:
                    out_queue.put(
                        (_COLS, wid, batch.columns(), pending_datagrams),
                        timeout=1.0,
                    )
                    stats.accepted += pending_datagrams
                except queue_mod.Full:
                    # The parent is wedged or gone: drop-and-count, the
                    # same loss semantics as a full engine buffer.
                    stats.dropped += pending_datagrams
                batch = FlowBatch()
            else:
                # Template-only (or all-malformed) window: consumed into
                # session state / counters, nothing to ship.
                stats.accepted += pending_datagrams
            pending_datagrams = 0

        while not stop_event.is_set():
            readable, _, _ = select.select([sock], [], [], poll_interval)
            if not readable:
                flush()  # idle: bound the latency of a partial batch
                continue
            raws: List[bytes] = []
            for _ in range(max_recv_per_wakeup):
                try:
                    n = sock.recv_into(view)
                except (BlockingIOError, InterruptedError):
                    break
                raws.append(bytes(view[:n]))
                stats.bytes_in += n
            if raws:
                stats.received += len(raws)
                errors_before = cstats.malformed + cstats.unknown_version
                batch.extend(collector.ingest_columns_many(raws))
                stats.malformed += (
                    cstats.malformed + cstats.unknown_version - errors_before
                )
                pending_datagrams += len(raws)
            if len(batch) >= batch_rows:
                flush()
        flush()
    except Exception as exc:  # pragma: no cover - defensive reporting
        out_queue.put((_ERROR, wid, f"{type(exc).__name__}: {exc}"))
    finally:
        sock.close()
        out_queue.put((_STATS, wid, stats))


class ReuseportUdpIngest:
    """N-worker SO_REUSEPORT UDP flow source (one port, N processes).

    A live source (``connect_buffer``/``start``/``stop``) for the async
    engine, feeding it decoded :class:`FlowBatch` items. ``workers=1``
    binds a plain socket —
    no SO_REUSEPORT needed — so the single-worker configuration runs on
    any platform and is the natural parity baseline for N.

    ``capture`` is part of the ingest-source protocol signature but is
    *rejected* here: datagrams are received inside worker processes the
    parent's capture writer cannot observe. Record with a single-worker
    source when a session must be replayable.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        batch_rows: int = 2048,
        recv_buffer_bytes: int = DEFAULT_RECV_BUFFER_BYTES,
        capacity: Optional[int] = None,
        name: Optional[str] = None,
        capture=None,
        max_recv_per_wakeup: int = 256,
        poll_interval: float = 0.05,
        supervise: bool = True,
        max_restarts: int = 5,
        restart_window: float = 30.0,
        restart_backoff: float = 0.05,
        restart_backoff_cap: float = 2.0,
    ):
        if workers < 1:
            raise ConfigError("ingest workers must be at least 1")
        if max_restarts < 0:
            raise ConfigError("max_restarts must be non-negative")
        if restart_window <= 0 or restart_backoff <= 0 or restart_backoff_cap <= 0:
            raise ConfigError("restart window and backoffs must be positive")
        if capture is not None:
            raise ConfigError(
                "ReuseportUdpIngest cannot tee a capture: datagrams are "
                "received in worker processes; use a single-worker "
                "UdpFlowIngest to record replayable sessions"
            )
        import socket as socket_mod

        if workers > 1 and not hasattr(socket_mod, "SO_REUSEPORT"):
            raise ConfigError(
                "SO_REUSEPORT is not available on this platform; "
                "multi-worker UDP ingest requires it"
            )
        self.host = host
        self.port = port
        self.workers = workers
        self.batch_rows = batch_rows
        self.recv_buffer_bytes = recv_buffer_bytes
        #: Overrides the async engine's stream_buffer_capacity when set.
        self.capacity = capacity
        self.capture = None
        self.name = name or f"reuseport[{host}:{port} x{workers}]"
        self.max_recv_per_wakeup = max_recv_per_wakeup
        self.poll_interval = poll_interval
        self.address: Optional[Tuple[str, int]] = None
        #: Partial-failure warnings (dead workers); folded into
        #: ``EngineReport.warnings`` by ``pipeline.collect_ingest``.
        self.ingest_errors: List[str] = []
        self.processes: List = []
        self._ctx = mp.get_context()
        self._out_queue = None
        self._stop_event = None
        self._started = False
        self._closed = False
        #: Keyed by (wid, generation): a respawned worker's sentinel must
        #: add to — not overwrite — its predecessor's counters.
        self._stats_parts: Dict[Tuple[int, int], IngestStats] = {}
        self._ready_rcvbuf: Dict[int, int] = {}
        self._accounted: set = set()
        # Supervision state.
        self.supervise = supervise
        self.max_restarts = max_restarts
        self.restart_window = restart_window
        self.restart_backoff = restart_backoff
        self.restart_backoff_cap = restart_backoff_cap
        #: Worker respawns performed (folded into
        #: ``EngineReport.worker_restarts`` by ``pipeline.collect_ingest``).
        self.restarts = 0
        self._generation: Dict[int, int] = {}
        self._respawn_at: Dict[int, float] = {}
        self._backoff: Dict[int, float] = {}
        self._restart_times: Deque[float] = deque()
        self._abandoned: set = set()
        self._stopping = False
        self._resolved_port: Optional[int] = None
        self._reuseport = workers > 1
        self._salvaged: Deque[Tuple[FlowBatch, int]] = deque()
        self._parent_dropped = 0
        self._delivered_datagrams = 0
        self._ready_evt = threading.Event()
        # Async-mode state.
        self._buffer = None
        self._drain_task = None

    # --- merged observability -------------------------------------------

    @property
    def ingest_stats(self) -> IngestStats:
        """The merged per-worker counters (see ``merge_ingest_stats``).

        Parent-side drops — batches a full engine buffer refused — move
        from ``accepted`` to ``dropped``, keeping ``accepted`` honest as
        "datagrams whose flows actually reached the pipeline".
        """
        merged = merge_ingest_stats(self.name, self._stats_parts.values())
        if not merged.recv_buffer_bytes and self._ready_rcvbuf:
            merged.recv_buffer_bytes = min(self._ready_rcvbuf.values())
        if self._delivered_datagrams > merged.received:
            # Workers ship their full counters only on exit; mid-run the
            # parent still knows how many datagrams' decoded columns it
            # has consumed, so expose that as a truthful lower bound —
            # without it a caller polling progress would read 0 until
            # shutdown.
            delta = self._delivered_datagrams - merged.received
            merged.received += delta
            merged.accepted += delta
        if self._parent_dropped:
            merged.accepted -= self._parent_dropped
            merged.dropped += self._parent_dropped
        return merged

    # --- worker lifecycle ------------------------------------------------

    def _start_workers(self) -> None:
        if self._started or self._closed:
            return
        self._started = True
        reuseport = self.workers > 1
        port = self.port
        if port == 0 and reuseport:
            # Reserve a concrete port for all workers to share: a probe
            # bind (REUSEPORT too, or the workers could not join it)
            # discovers one, then closes before any worker binds so the
            # kernel never balances traffic onto a dead socket.
            probe = bind_udp_socket((self.host, 0), reuseport=True)
            port = probe.getsockname()[1]
            probe.close()
        if port:
            self._resolved_port = port
        self._out_queue = self._ctx.Queue(maxsize=_QUEUE_DEPTH)
        self._stop_event = self._ctx.Event()
        self.processes = [self._make_worker(wid, port) for wid in range(self.workers)]
        for process in self.processes:
            process.start()

    def _make_worker(self, wid: int, port: int):
        return self._ctx.Process(
            target=_ingest_worker,
            args=(
                wid,
                self.host,
                port,
                self._reuseport,
                self._out_queue,
                self._stop_event,
                self.batch_rows,
                self.recv_buffer_bytes,
                self.max_recv_per_wakeup,
                self.poll_interval,
            ),
            daemon=True,
        )

    def _handle(self, message) -> None:
        tag = message[0]
        if tag == _COLS:
            _tag, _wid, columns, ndatagrams = message
            self._delivered_datagrams += ndatagrams
            self._salvaged.append((FlowBatch.from_columns(columns), ndatagrams))
        elif tag == _READY:
            _tag, wid, bound_port, rcvbuf = message
            self._ready_rcvbuf[wid] = rcvbuf
            self._resolved_port = bound_port
            if self.address is None:
                self.address = (self.host, bound_port)
            if len(self._ready_rcvbuf) == self.workers:
                self._ready_evt.set()
        elif tag == _STATS:
            _tag, wid, stats = message
            self._stats_parts[(wid, self._generation.get(wid, 0))] = stats
            if self._supervisable(wid):
                # The worker exited without being asked to stop: its
                # sentinel is an epitaph, not completion — respawn it.
                self._schedule_respawn(wid, "exited unexpectedly")
            else:
                self._accounted.add(wid)
        elif tag == _ERROR:
            _tag, wid, error = message
            self.ingest_errors.append(f"ingest worker {wid} failed: {error}")
            if self._supervisable(wid):
                self._schedule_respawn(wid, error)
            else:
                self._accounted.add(wid)

    def _drain_nowait(self) -> int:
        out_queue = self._out_queue
        if out_queue is None:
            return 0
        moved = 0
        while True:
            try:
                message = out_queue.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return moved
            self._handle(message)
            moved += 1

    def _pump_blocking(self, timeout: float) -> bool:
        out_queue = self._out_queue
        if out_queue is None:
            return False
        try:
            message = out_queue.get(timeout=timeout)
        except (queue_mod.Empty, OSError, ValueError):
            return False
        self._handle(message)
        return True

    def _all_accounted(self) -> bool:
        return len(self._accounted) >= self.workers

    # --- supervision ------------------------------------------------------

    def _supervisable(self, wid: int) -> bool:
        """True when a dead worker in slot ``wid`` should be respawned."""
        return (
            self.supervise
            and not self._stopping
            and not self._closed
            and wid not in self._abandoned
        )

    def _schedule_respawn(self, wid: int, reason: str) -> None:
        """Queue slot ``wid`` for respawn after its current backoff.

        Enforces the source-wide restart budget: more than
        ``max_restarts`` respawns inside ``restart_window`` seconds means
        the failure is systemic (bad port, OOM pressure), and burning
        CPU on respawn loops would starve the surviving workers — the
        slot is abandoned instead, and the source degrades loudly.
        """
        if wid in self._respawn_at or wid in self._abandoned or wid in self._accounted:
            return
        now = time.monotonic()
        while self._restart_times and now - self._restart_times[0] > self.restart_window:
            self._restart_times.popleft()
        if len(self._restart_times) >= self.max_restarts:
            self._abandoned.add(wid)
            self._accounted.add(wid)
            self.ingest_errors.append(
                f"ingest worker {wid} abandoned after {self.max_restarts} "
                f"restarts in {self.restart_window:.0f}s; degraded to "
                f"{self.workers - len(self._abandoned)} surviving worker(s)"
            )
            return
        backoff = self._backoff.get(wid, self.restart_backoff)
        self._backoff[wid] = min(backoff * 2.0, self.restart_backoff_cap)
        self._respawn_at[wid] = now + backoff
        self.ingest_errors.append(
            f"ingest worker {wid} died ({reason}); respawning in {backoff:.2f}s"
        )

    def _maybe_respawn(self) -> None:
        """Start replacement workers whose backoff has elapsed.

        Called from every polling path (async drain, startup wait,
        teardown), so supervision needs no thread of its own. Once
        the source is stopping, pending respawns resolve to accounted
        slots instead — a replacement spawned during teardown would
        never be joined.
        """
        if not self._respawn_at:
            return
        now = time.monotonic()
        for wid in list(self._respawn_at):
            if self._stopping or self._closed:
                del self._respawn_at[wid]
                self._accounted.add(wid)
                continue
            if now < self._respawn_at[wid]:
                continue
            del self._respawn_at[wid]
            old = self.processes[wid]
            if old.pid is not None and not old.is_alive():
                old.join(timeout=0)  # release the dead process record
            port = self._resolved_port if self._resolved_port else self.port
            self._generation[wid] = self._generation.get(wid, 0) + 1
            replacement = self._make_worker(wid, port)
            self.processes[wid] = replacement
            replacement.start()
            self.restarts += 1
            self._restart_times.append(now)

    def _reap_dead_workers(self) -> None:
        """Handle workers that died without their stats sentinel.

        Called only after an empty queue poll: a worker that exited
        cleanly flushed its sentinel to the pipe *before* its exitcode
        became observable, so anything still missing after a non-blocking
        drain really did die mid-ingest. Supervised, that schedules a
        respawn; otherwise it is accounted as a loud warning, not a hang.
        """
        dead = [
            wid
            for wid, process in enumerate(self.processes)
            if wid not in self._accounted
            and wid not in self._respawn_at
            and process.pid is not None
            and not process.is_alive()
        ]
        if dead:
            self._drain_nowait()
            for wid in dead:
                if wid in self._accounted or wid in self._respawn_at:
                    continue
                exitcode = self.processes[wid].exitcode
                if self._supervisable(wid):
                    self._schedule_respawn(wid, f"exitcode {exitcode}")
                else:
                    self._accounted.add(wid)
                    self.ingest_errors.append(
                        f"ingest worker {wid} died mid-ingest (exitcode "
                        f"{exitcode}); flows routed to its socket after the "
                        f"death were lost"
                    )
        self._maybe_respawn()

    def _join_workers(self) -> None:
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
        if self._out_queue is not None:
            self._out_queue.cancel_join_thread()
            self._out_queue.close()
            self._out_queue = None

    # --- teardown -----------------------------------------------------------

    def _signal_stop(self) -> None:
        """Ask the workers to flush and exit.

        Stopping also ends supervision: pending respawns are cancelled
        and dead slots account as final.
        """
        self._stopping = True
        if self._stop_event is not None:
            self._stop_event.set()

    def close(self) -> None:
        """Idempotent teardown (the ingest-source protocol's close())."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        self._signal_stop()
        deadline_polls = 100  # 100 × 0.1s: never hang teardown
        while not self._all_accounted() and deadline_polls:
            if not self._pump_blocking(timeout=0.1):
                self._reap_dead_workers()
            deadline_polls -= 1
        self._drain_nowait()
        self._join_workers()

    def __enter__(self) -> "ReuseportUdpIngest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- the live face (async engine) -------------------------------------

    def wait_ready(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Block (from another thread) until every worker has bound;
        returns the shared address.

        Readiness messages are consumed by the engine's startup wait —
        hand the source to an engine run before waiting, exactly like
        the other live ingests.
        """
        if not self._ready_evt.wait(timeout):
            raise TimeoutError("reuseport ingest workers did not bind in time")
        return self.address

    def connect_buffer(self, buffer) -> None:
        self._buffer = buffer

    async def start(self, loop) -> None:
        """Spawn the workers and the queue→buffer drain task."""
        import asyncio

        self._start_workers()
        while not self._ready_evt.is_set():
            self._drain_nowait()
            if self._all_accounted():
                # Every worker failed before binding (port in use, no
                # permission): fail startup like a single socket would.
                raise OSError(
                    "; ".join(self.ingest_errors) or "ingest workers died at startup"
                )
            self._reap_dead_workers()
            await asyncio.sleep(0.005)
        self._drain_task = loop.create_task(self._drain_async())

    async def _drain_async(self) -> None:
        import asyncio

        salvaged = self._salvaged
        while True:
            moved = self._drain_nowait()
            while salvaged:
                self._offer(*salvaged.popleft())
            if self._all_accounted() and not moved:
                return
            self._maybe_respawn()
            if not moved:
                self._reap_dead_workers()
                await asyncio.sleep(0.002)
            else:
                await asyncio.sleep(0)

    def _offer(self, batch: FlowBatch, ndatagrams: int) -> None:
        if self._buffer is None or not self._buffer.try_put(batch):
            self._parent_dropped += ndatagrams

    async def stop(self) -> None:
        """Async stop: workers flush, the drain task finishes, then join."""
        import asyncio

        self._signal_stop()
        if self._drain_task is not None:
            try:
                await asyncio.wait_for(self._drain_task, timeout=30.0)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                self._drain_task.cancel()
                self.ingest_errors.append(
                    "ingest drain did not finish within 30s of stop"
                )
            self._drain_task = None
        self._join_workers()
        self._closed = True
