"""Deterministic simulation engine.

Replays timestamp-ordered DNS and Netflow record streams through the same
columnar FillUp/LookUp lanes the async engine runs, entirely
single-threaded, with simulated time driven by record timestamps. A
week-long ISP deployment (Figure 2) replays in seconds and is
reproducible bit-for-bit from the workload seed.

The merged stream reaches the lanes one same-lane run at a time: each
maximal run of consecutive DNS (or flow) records, cut at every sampling
and write-flush boundary, is one ``process_columns`` (or one
``correlate_batch_columns``) call. A run never spans a record of the
other lane, so stores and lookups happen in record order; what batching
changes is that a flow run resolves each distinct IP once. So
``cname_steps`` counts unique resolutions per run, and with chain
memoisation on, a later flow of the run reports the full chain its IP's
one walk found rather than the memoised two-name shortcut.

Resource usage is produced by :class:`repro.core.metrics.CostModel` from
the exact operation counts of each sampling interval; stream loss is the
model's capacity term and feeds back into the replay (records arriving
during overload are dropped before processing, like the ISP stream
buffers drop them), which is how the Appendix A.8 exact-TTL meltdown —
loss >90 %, sweeps starved, memory ballooning — emerges here from the
same mechanics the paper describes.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, TextIO

from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import CorrelationResult, LookUpProcessor
from repro.core.metrics import (
    CostModel,
    CostModelParams,
    EngineReport,
    IntervalCounters,
    IntervalSample,
)
from repro.core.storage_adapter import DnsStorage
from repro.core.writer import DiscardSink, WriteWorker
from repro.dns.columnar import DnsBatch
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowBatch, FlowRecord

#: Simulated seconds between write-worker flushes.
WRITE_FLUSH_INTERVAL = 30.0


class SimulationEngine:
    """Single-threaded, deterministic FlowDNS replay with modelled resources."""

    def __init__(
        self,
        config: Optional[FlowDNSConfig] = None,
        cost_params: Optional[CostModelParams] = None,
        sample_interval: float = 3600.0,
        sink: Optional[TextIO] = None,
        worker_count: int = 8,
        variant_name: str = "main",
        on_result=None,
    ):
        self.config = config if config is not None else FlowDNSConfig()
        self.cost_params = cost_params if cost_params is not None else CostModelParams()
        self.sample_interval = float(sample_interval)
        self.worker_count = worker_count
        self.variant_name = variant_name
        self.storage = DnsStorage(self.config)
        self.fillup = FillUpProcessor(self.storage)
        self.lookup = LookUpProcessor(self.storage, self.config)
        self.writer = WriteWorker(sink if sink is not None else DiscardSink())
        self.cost_model = CostModel(
            self.cost_params,
            num_splits=self.config.effective_num_split,
            exact_ttl=self.config.exact_ttl,
            workers=worker_count,
        )
        #: Optional hook fired with every CorrelationResult — the analysis
        #: modules use it to aggregate without materialising all results.
        self.on_result = on_result
        self._counters = IntervalCounters()
        self._pending_writes = []

    def run(
        self,
        dns_records: Iterable[DnsRecord],
        flow_records: Iterable[FlowRecord],
    ) -> EngineReport:
        """Replay both streams to exhaustion; returns the full report.

        Both inputs must be sorted by timestamp (workload generators emit
        them that way). At equal timestamps DNS records are processed
        before flows, matching reality: a resolution precedes the traffic
        it enables.
        """
        report = EngineReport(variant_name=self.variant_name)
        merged = heapq.merge(
            ((rec.ts, 0, rec) for rec in dns_records),
            ((rec.ts, 1, rec) for rec in flow_records),
            key=lambda item: (item[0], item[1]),
        )

        interval_start: Optional[float] = None
        current_loss = 0.0
        loss_accumulator = 0.0
        offered = 0
        dropped = 0
        last_flush_ts: Optional[float] = None
        last_rotated = 0
        last_cname_steps = 0
        last_swept = 0
        first_ts: Optional[float] = None
        last_ts: Optional[float] = None
        run: list = []  # the current same-lane run of surviving records
        run_kind = 0

        def flush_run() -> None:
            if not run:
                return
            if run_kind == 0:
                self._fill(run, overloaded=current_loss > 0.0)
            else:
                self._correlate(run)
            run.clear()

        def flush_writes(now: float) -> None:
            for batch in self._pending_writes:
                self.writer.write_batch(batch, delay=now - batch.flows.ts[0])
                self._counters.writes += len(batch)
            self._pending_writes.clear()

        def close_interval(t_end: float) -> None:
            nonlocal interval_start, current_loss, last_rotated, last_cname_steps, last_swept
            self._counters.duration = t_end - interval_start
            rotated_total = self._store_stat("entries_rotated")
            self._counters.rotation_entries = rotated_total - last_rotated
            last_rotated = rotated_total
            swept_total = self._store_stat("sweep_scanned")
            self._counters.sweep_scanned = swept_total - last_swept
            last_swept = swept_total
            self._counters.cname_steps = self.lookup.stats.cname_steps - last_cname_steps
            last_cname_steps = self.lookup.stats.cname_steps
            entries = self.storage.total_entries()
            sample = IntervalSample(
                t_start=interval_start,
                t_end=t_end,
                cpu_percent=self.cost_model.cpu_percent(self._counters),
                memory_bytes=self.cost_model.memory_bytes(entries),
                traffic_bytes=self._counters.flow_bytes,
                correlated_bytes=self._counters.correlated_bytes,
                dns_records=self._counters.dns_records,
                flow_records=self._counters.flow_records,
                loss_rate=self.cost_model.loss_rate(self._counters),
                map_entries=entries,
            )
            report.samples.append(sample)
            current_loss = sample.loss_rate
            self._counters = IntervalCounters()
            interval_start = t_end

        for ts, kind, record in merged:
            if first_ts is None:
                first_ts = ts
                interval_start = ts
                last_flush_ts = ts
            last_ts = ts

            if (
                ts >= interval_start + self.sample_interval
                or ts - last_flush_ts >= WRITE_FLUSH_INTERVAL
            ):
                # Runs are cut at every boundary, so each lands in its
                # own interval and is pending before its write flush.
                flush_run()
                while ts >= interval_start + self.sample_interval:
                    boundary = interval_start + self.sample_interval
                    flush_writes(boundary)
                    last_flush_ts = boundary
                    close_interval(boundary)
                if ts - last_flush_ts >= WRITE_FLUSH_INTERVAL:
                    flush_writes(ts)
                    last_flush_ts = ts

            # Stream-buffer loss feedback: during overload the ingress
            # buffers drop the un-servable fraction before FlowDNS sees it.
            offered += 1
            if current_loss > 0.0:
                loss_accumulator += current_loss
                if loss_accumulator >= 1.0:
                    loss_accumulator -= 1.0
                    dropped += 1
                    if kind == 1:
                        # Lost traffic still exists on the wire: it counts
                        # toward total volume but can never be correlated.
                        self._counters.flow_bytes += record.bytes_
                        self._counters.flow_records += 1
                    else:
                        self._counters.dns_records += 1
                    continue

            if kind != run_kind:
                flush_run()
                run_kind = kind
            run.append(record)

        flush_run()
        if first_ts is not None:
            flush_writes(last_ts)
            if last_ts > interval_start:
                close_interval(last_ts)

        report.total_bytes = sum(s.traffic_bytes for s in report.samples)
        report.correlated_bytes = sum(s.correlated_bytes for s in report.samples)
        report.dns_records = sum(s.dns_records for s in report.samples)
        report.flow_records = sum(s.flow_records for s in report.samples)
        report.matched_flows = self.lookup.stats.matched
        report.overall_loss_rate = dropped / offered if offered else 0.0
        report.max_write_delay = self.writer.stats.max_delay
        report.chain_lengths = dict(self.lookup.stats.chain_lengths)
        report.final_map_entries = self.storage.total_entries()
        report.overwrites = self.storage.overwrites()
        report.duration = (last_ts - first_ts) if first_ts is not None else 0.0
        return report

    def _fill(self, records: List[DnsRecord], overloaded: bool) -> None:
        # The A.8 expiry sweeper is itself starved during overload: "the
        # regular clear-up process not being fast enough to clear-up all
        # the expired TTLs as the hashmaps grow". Rotating-store clear-up
        # runs inside the fill (record-time driven) either way.
        self.fillup.process_columns(DnsBatch.from_records(records), sweep=not overloaded)
        self._counters.dns_records += len(records)

    def _correlate(self, flows: List[FlowRecord]) -> None:
        batch = self.lookup.correlate_batch_columns(FlowBatch.from_records(flows))
        counters = self._counters
        counters.flow_records += len(batch)
        counters.flow_bytes += batch.bytes_in
        counters.correlated_bytes += batch.bytes_matched
        counters.matched_flows += batch.matched
        if self.on_result is not None:
            for flow, chain in zip(flows, batch.chains):
                self.on_result(CorrelationResult(flow, chain, flow.ts))
        self._pending_writes.append(batch)

    def _store_stat(self, name: str) -> int:
        """A maintenance counter summed over both stores; 0 under the
        expiry policy that has no such counter."""
        return sum(getattr(store.stats, name, 0) for store in self.storage.stores)
