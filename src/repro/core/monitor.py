"""Operational metrics exposition.

Renders engine/storage state in the Prometheus text exposition format
so an operator can scrape a running FlowDNS (the paper's Figure 2
series are exactly these gauges over a week). For long-lived ``serve``
sessions, :class:`MetricsHttpServer` wires a renderer to a socket: a
minimal asyncio HTTP responder that shares the engine's event loop, so
scraping a live session needs no extra thread and no dependency.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.metrics import EngineReport

_PREFIX = "flowdns"


class MetricsRenderer:
    """Accumulates metric samples and renders the exposition text."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._seen_headers = set()

    def gauge(self, name: str, value: float, help_text: str = "", labels: Optional[Dict[str, str]] = None) -> None:
        self._sample(f"{_PREFIX}_{name}", "gauge", value, help_text, labels)

    def counter(self, name: str, value: float, help_text: str = "", labels: Optional[Dict[str, str]] = None) -> None:
        self._sample(f"{_PREFIX}_{name}_total", "counter", value, help_text, labels)

    def _sample(self, full: str, kind: str, value: float, help_text: str,
                labels: Optional[Dict[str, str]]) -> None:
        """One sample line, after the metric's HELP/TYPE header the first
        time ``full`` appears."""
        if full not in self._seen_headers:
            if help_text:
                self._lines.append(f"# HELP {full} {help_text}")
            self._lines.append(f"# TYPE {full} {kind}")
            self._seen_headers.add(full)
        label_text = ""
        if labels:
            inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
            label_text = "{" + inner + "}"
        self._lines.append(f"{full}{label_text} {value}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_report(report: EngineReport) -> str:
    """Expose an EngineReport's aggregates."""
    out = MetricsRenderer()
    out.counter("dns_records", report.dns_records, "DNS stream records processed")
    out.counter("flow_records", report.flow_records, "Netflow records processed")
    out.counter("matched_flows", report.matched_flows, "flows correlated to a service")
    out.counter("correlated_bytes", report.correlated_bytes, "bytes attributed to a service")
    out.counter("total_bytes", report.total_bytes, "bytes observed")
    out.gauge("correlation_rate", report.correlation_rate,
              "correlated bytes / total bytes")
    out.gauge("stream_loss_rate", report.overall_loss_rate,
              "fraction of offered records dropped at ingress buffers")
    out.gauge("write_delay_seconds_max", report.max_write_delay,
              "max delay between flow timestamp and output write")
    out.gauge("map_entries", report.final_map_entries, "live hashmap entries")
    out.counter("storage_evictions", report.evictions,
                "entries dropped by the max_entries memory bound")
    for length, count in sorted(report.chain_lengths.items()):
        out.counter("chains", count, "lookup chains by length",
                    labels={"length": str(length)})
    return out.render()


def render_async_engine(engine, sources: Tuple = ()) -> str:
    """Expose a *running* async engine's live service state.

    This is what ``serve --metrics-port`` publishes mid-run: lane
    progress, per-bank entry counts, ingress buffer occupancy and drops,
    the memory-bound eviction counter, and snapshot freshness — the numbers an operator needs to answer "is
    this service healthy" without stopping it. Duck-typed on the
    AsyncEngine surface so tests can feed a stub.
    """
    out = MetricsRenderer()
    out.counter("dns_records", engine.dns_records_seen,
                "DNS stream records processed")
    out.counter("flow_records", engine.flows_seen,
                "Netflow records processed")
    storage = engine.storage
    counts = storage.entry_counts()
    for bank, tiers in counts.items():
        for tier, entries in tiers.items():
            out.gauge("storage_entries", entries, "entries per bank/tier",
                      labels={"bank": bank, "tier": tier})
    out.gauge("map_entries", storage.total_entries(), "live hashmap entries")
    out.counter("storage_overwrites", storage.overwrites(),
                "IP-key overwrites (accuracy-relevant)")
    out.counter("storage_evictions", storage.evictions(),
                "entries dropped by the max_entries memory bound")
    for buffer in getattr(engine, "_buffers", ()):
        labels = {"stream": buffer.name}
        out.counter("stream_offered", buffer.stats.offered,
                    "records offered to the ingress buffer", labels=labels)
        out.counter("stream_dropped", buffer.stats.dropped,
                    "records dropped at the ingress buffer", labels=labels)
        out.gauge("stream_buffer_fill", len(buffer) / buffer.capacity,
                  "ingress buffer occupancy fraction", labels=labels)
    writer = getattr(engine, "writer", None)
    if writer is not None:
        out.gauge("write_rows", writer.stats.rows, "output rows written")
    for source in sources:
        stats = getattr(source, "ingest_stats", None)
        if stats is not None:
            labels = {"source": stats.name}
            out.counter("ingest_received", stats.received,
                        "wire units received", labels=labels)
            out.counter("ingest_accepted", stats.accepted,
                        "wire units handed to the pipeline", labels=labels)
            out.counter("ingest_dropped", stats.dropped,
                        "wire units dropped at ingest", labels=labels)
            out.counter("ingest_malformed", stats.malformed,
                        "wire units that failed to decode", labels=labels)
    out.counter("snapshots_written", getattr(engine, "snapshots_written", 0),
                "periodic snapshots written this run")
    out.gauge("snapshot_age_seconds", getattr(engine, "snapshot_age", lambda: -1.0)(),
              "seconds since the last snapshot write (-1: none yet)")
    out.gauge("restored_entries", getattr(engine, "restored_entries", 0),
              "entries restored from a snapshot at startup")
    return out.render()


class MetricsHttpServer:
    """A minimal asyncio HTTP responder for live metrics scraping.

    Serves every GET with the current output of ``render()`` (a callable
    returning exposition text) and closes the connection — the subset of
    HTTP a Prometheus scrape or ``curl`` needs, on the engine's own
    event loop. Render failures return a 500 with the error in the body
    rather than killing the serving task.
    """

    def __init__(self, render: Callable[[], str], host: str = "127.0.0.1", port: int = 0):
        self.render_fn = render
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, ConnectionError, OSError):
                return
            try:
                body = self.render_fn()
                status = "200 OK"
            except Exception as exc:  # surface, don't kill the server task
                body = f"# metrics render failed: {exc!r}\n"
                status = "500 Internal Server Error"
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii") + payload)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse exposition text back into {metric{labels}: value}.

    Only used by tests and the examples; real deployments scrape with
    Prometheus itself.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out
