"""The inline baseline: one capture through each layer's public functions.

Single-threaded and in-process, in ``engine_batch_size`` chunks and in the
order ``flowdns replay --engine async`` uses (the whole DNS lane, then the
whole flow lane, each lane reading the capture file for itself)::

    read_capture -> decode_fill_columns -> FillUpProcessor.process_columns
    read_capture -> FlowCollector.ingest_columns_many
                 -> LookUpProcessor.correlate_batch_columns
                 -> format_batch -> sink write

This is the reference the engines are compared with: its rows are what a
run's rows are checked against, and with ``--trace`` it records one span
per layer call, which is where every per-layer ``_s`` metric comes from.
It runs as a process of its own (``python bench/inline.py CAPTURE ...``) so
that it starts with the same cold caches a ``flowdns`` child does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import count, islice
from types import SimpleNamespace
from typing import Dict, Iterable, Iterator, List, Optional

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Stamp given to every DNS message with ``arrival_stamped``: a live
#: ``TcpDnsIngest`` stamps arrival time, so a whole session lands inside
#: one clear-up interval and nothing rotates.
ARRIVAL_STAMP = 1.0e9

#: ``DnsStorage`` methods timed inside their caller's span, and how many
#: items one call carries (``None``: one).
STORAGE_CALLS = {
    "add_many_columns": len,
    "lookup_ips": len,
    "lookup_cname": None,
    "memoize_chain": None,
}

#: Span name -> the per-layer metric its self time is reported as.
SELF_TIME_METRICS = {
    "capture.read": "capture.read_s",
    "dns.decode": "dns.decode_s",
    "fillup": "fillup.self_s",
    "storage.add_many_columns": "storage.put_s",
    "storage.lookup_ips": "storage.lookup_ip_s",
    "storage.lookup_cname": "storage.lookup_cname_s",
    "netflow.decode": "netflow.decode_s",
    "lookup": "lookup.self_s",
    "writer.format": "writer.format_s",
    "writer.sink": "writer.sink_s",
}


class Tracer:
    """Spans kept in memory: one per layer call, written out at the end.

    A span is a dict with ``id``, ``name``, ``parent``, ``workload``,
    ``batch``, ``start_ns``, ``end_ns`` and ``storage`` — the storage
    calls made inside it, folded to ``{method: [calls, items, ns]}``
    rather than one span each.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[dict] = []

    def open(self, name: str, batch: Optional[int] = None) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "workload": self.workload,
            "batch": batch,
            "storage": {},
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self) -> None:
        self._stack.pop()["end_ns"] = time.perf_counter_ns()

    def shim_storage(self, storage) -> None:
        """Time ``storage``'s calls into whichever span is open, by
        wrapping the methods of this one instance."""
        for method, count_items in STORAGE_CALLS.items():
            setattr(storage, method, self._timed(getattr(storage, method), method, count_items))

    def _timed(self, inner, method, count_items):
        stack = self._stack
        clock = time.perf_counter_ns

        def timed(first, *rest):
            started = clock()
            try:
                return inner(first, *rest)
            finally:
                cell = stack[-1]["storage"].setdefault(method, [0, 0, 0])
                cell[0] += 1
                cell[1] += count_items(first) if count_items else 1
                cell[2] += clock() - started

        return timed

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def overhead_ns(self) -> int:
        """What the recording itself cost this pass: spans opened and
        storage calls timed, each priced by timing the same operation
        around nothing, here and now.

        The direct measure — the same pass with the shims off — cannot
        resolve it: on the sandbox two identical passes differ by up to
        10 % either way, and this is well under 1 %.
        """
        probe = Tracer("")
        stub = SimpleNamespace(**{method: lambda *args: None for method in STORAGE_CALLS})
        probe.shim_storage(stub)
        rounds = 5000
        probe.open("probe")
        clock = time.perf_counter_ns
        started = clock()
        for _ in range(rounds):
            probe.open("empty")
            probe.close()
        per_span = (clock() - started) / rounds
        started = clock()
        for _ in range(rounds):
            stub.lookup_cname("", 0.0)
        per_call = (clock() - started) / rounds
        calls = sum(cell[0] for span in self.spans for cell in span["storage"].values())
        return int(len(self.spans) * per_span + calls * per_call)


def self_times(spans: Iterable[dict]) -> Dict[str, int]:
    """Self time per span name, in ns: a span's duration minus what its
    child spans and its folded storage calls cover. Folded storage time
    is reported under ``storage.<method>``."""
    spans = list(spans)
    covered: Dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (
                covered.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
            )
    out: Dict[str, int] = {}
    for span in spans:
        own = span["end_ns"] - span["start_ns"] - covered.get(span["id"], 0)
        for method, (_calls, _items, ns) in span["storage"].items():
            own -= ns
            out[f"storage.{method}"] = out.get(f"storage.{method}", 0) + ns
        out[span["name"]] = out.get(span["name"], 0) + own
    return out


def storage_counts(spans: Iterable[dict]) -> Dict[str, List[int]]:
    """``{method: [calls, items]}`` summed over every span."""
    out: Dict[str, List[int]] = {}
    for span in spans:
        for method, (calls, items, _ns) in span["storage"].items():
            cell = out.setdefault(method, [0, 0])
            cell[0] += calls
            cell[1] += items
    return out


class _NoTrace:
    """The shims-off pass: same calls, nothing recorded."""

    def open(self, name, batch=None):
        return None

    def close(self):
        return None


def _chunks(items: Iterator, size: int, tracer, batch_ids: Iterator[int]) -> Iterator:
    """Pull ``size`` items at a time, timing each pull as ``capture.read``."""
    while True:
        batch = next(batch_ids)
        tracer.open("capture.read", batch)
        chunk = list(islice(items, size))
        tracer.close()
        if not chunk:
            return
        yield batch, chunk


def run_pass(
    capture_path: str,
    rows_path: str,
    workload: str = "",
    trace_path: Optional[str] = None,
    arrival_stamped: bool = False,
) -> Dict[str, object]:
    """One inline pass; returns its counts and walls. With ``trace_path``
    it records spans, writes them there, and adds the self times."""
    from repro.core.config import FlowDNSConfig
    from repro.core.fillup import FillUpProcessor
    from repro.core.lookup import LookUpProcessor
    from repro.core.storage_adapter import DnsStorage
    from repro.core.writer import HEADER, format_batch
    from repro.dns.columnar import decode_fill_columns
    from repro.netflow.collector import FlowCollector
    from repro.replay.capture import LANE_DNS, LANE_FLOW, read_capture

    config = FlowDNSConfig()
    size = config.engine_batch_size
    storage = DnsStorage(config)
    fillup = FillUpProcessor(storage)
    lookup = LookUpProcessor(storage, config)
    collector = FlowCollector()
    traced = trace_path is not None
    tracer = Tracer(workload) if traced else _NoTrace()
    if traced:
        tracer.shim_storage(storage)

    def lane(name: str) -> Iterator:
        return (f for f in read_capture(capture_path) if f.lane == name)

    batch_ids = count()
    frames = dns_rows = rows = matched = bytes_out = 0
    started = time.perf_counter_ns()
    tracer.open("inline")

    tracer.open("dns_lane")
    for batch, chunk in _chunks(lane(LANE_DNS), size, tracer, batch_ids):
        frames += len(chunk)
        payloads = [f.payload for f in chunk]
        stamps = ARRIVAL_STAMP if arrival_stamped else [f.ts for f in chunk]
        tracer.open("dns.decode", batch)
        decoded = decode_fill_columns(payloads, stamps)
        tracer.close()
        dns_rows += len(decoded)
        tracer.open("fillup", batch)
        fillup.process_columns(decoded)
        tracer.close()
    tracer.close()
    dns_done = time.perf_counter_ns()

    tracer.open("flow_lane")
    with open(rows_path, "w", encoding="utf-8") as sink:
        sink.write(HEADER)
        for batch, chunk in _chunks(lane(LANE_FLOW), size, tracer, batch_ids):
            frames += len(chunk)
            tracer.open("netflow.decode", batch)
            flows = collector.ingest_columns_many(f.payload for f in chunk)
            tracer.close()
            if not len(flows):
                continue
            tracer.open("lookup", batch)
            correlated = lookup.correlate_batch_columns(flows)
            tracer.close()
            tracer.open("writer.format", batch)
            text = "".join(format_batch(correlated))
            tracer.close()
            tracer.open("writer.sink", batch)
            sink.write(text)
            tracer.close()
            rows += len(correlated)
            matched += correlated.matched
            bytes_out += len(text)
        tracer.open("writer.sink")
        sink.flush()
        tracer.close()
    tracer.close()

    tracer.close()
    ended = time.perf_counter_ns()

    msgs = fillup.stats.raw_messages
    out: Dict[str, object] = {
        "wall_s": (ended - started) / 1e9,
        "dns_lane_s": (dns_done - started) / 1e9,
        "flow_lane_s": (ended - dns_done) / 1e9,
        "records": msgs + rows,
        "matched": matched,
        "capture.frames": frames,
        "dns.msgs": msgs,
        "dns.rows": dns_rows,
        "dns.invalid": fillup.stats.invalid,
        "fillup.records_stored": fillup.stats.records_stored,
        "storage.entries_final": storage.total_entries(),
        "storage.overwrites": storage.overwrites(),
        "storage.evictions": storage.evictions(),
        "netflow.datagrams": collector.stats.datagrams,
        "netflow.flows": collector.stats.flows,
        "netflow.malformed": collector.stats.malformed + collector.stats.unknown_version,
        "lookup.flows": lookup.stats.flows_in,
        "lookup.cname_steps": lookup.stats.cname_steps,
        "lookup.chains_memoized": lookup.stats.chains_memoized,
        "writer.rows": rows,
        "writer.mb_out": bytes_out / 1e6,
    }
    if traced:
        own = self_times(tracer.spans)
        layer_ns = 0
        for span_name, metric in SELF_TIME_METRICS.items():
            ns = own.get(span_name, 0)
            layer_ns += ns
            out[metric] = ns / 1e9
        # memoize_chain has no metric of its own but is storage work done.
        layer_ns += own.get("storage.memoize_chain", 0)
        counts = storage_counts(tracer.spans)
        out["storage.put_rows"] = counts.get("add_many_columns", [0, 0])[1]
        out["storage.lookup_ip_keys"] = counts.get("lookup_ips", [0, 0])[1]
        out["storage.lookup_cname_calls"] = counts.get("lookup_cname", [0, 0])[0]
        out["inline.accounted_share"] = layer_ns / (ended - started)
        overhead = tracer.overhead_ns()
        out["inline.traced_overhead_share"] = overhead / (ended - started - overhead)
        tracer.write(trace_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("capture")
    parser.add_argument("--rows", required=True, help="write the TSV rows here")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record spans and write them to FILE (JSON lines)")
    parser.add_argument("--workload", default="", help="label carried by every span")
    parser.add_argument("--arrival-stamped", action="store_true",
                        help="stamp every DNS message with one time, as live ingest does")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    print(json.dumps(run_pass(
        args.capture, args.rows, args.workload, args.trace, args.arrival_stamped
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
