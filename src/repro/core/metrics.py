"""Correlation metrics and the resource cost model.

The paper evaluates FlowDNS on a 128-core / 756 GB host at 1M flow
records/s — three orders of magnitude beyond what pure Python sustains
(the calibration band for this reproduction says exactly that). We
therefore split measurement into two layers:

* **counters** — exact, measured on the events the engines actually
  process: records, bytes, matches, map entries, rotations, sweep scans,
  contended lock acquisitions;
* **cost model** — converts those counters into paper-scale CPU-% and
  memory-GB figures via calibrated constants, so Figures 2 and 3 can be
  regenerated shape-faithfully.

Calibration (documented in EXPERIMENTS.md): one work unit ≈ 13.5 µs of
one core (``cpu_scale``), chosen so the Main variant at the large-ISP
rates lands near the paper's ~2500 % CPU; ``bytes_per_entry = 600`` (Go
string pair + map bucket overhead) lands Main's memory in the paper's
15–30 GB band at paper-scale entry counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.units import GIB


@dataclass
class CostModelParams:
    """Calibrated constants translating operation counts into resources.

    ``rate_scale`` is the down-scaling factor of the simulated workload
    relative to the deployment being modelled: a preset that simulates
    1/2000th of the large ISP's record rate sets ``rate_scale = 2000`` so
    modelled CPU/memory extrapolate back to deployment scale.
    """

    # Work units per operation (dimensionless).
    cost_fillup: float = 1.0
    cost_lookup: float = 1.2
    cost_cname_step: float = 0.4
    cost_rotation_per_entry: float = 0.5
    cost_sweep_per_entry: float = 0.8
    cost_write: float = 0.3
    #: Extra per-op cost per additional split ("splitting … consumes
    #: higher CPU for the same amount of data" — Section 6).
    split_overhead_per_extra: float = 0.05
    #: Serialization multiplier for the exact-TTL variant: every map
    #: access contends with the expiry scanner and takes the shared locks
    #: hot (Appendix A.8: "the contention to access the shared memory is
    #: so high that the performance degrades dramatically").
    exact_ttl_op_multiplier: float = 55.0

    # CPU calibration. The paper's Figure 2a shows CPU in a narrow band
    # (~2200–2600 %) while traffic swings several-fold: worker threads
    # cost a near-constant baseline (queue polling, scheduling) and the
    # per-record work adds a comparatively small diurnal component on
    # top. ``per_worker_cpu_percent`` models the baseline, ``cpu_scale``
    # the slope.
    cpu_scale: float = 0.00021  # CPU-percent-seconds per work unit
    per_worker_cpu_percent: float = 31.0
    #: Engine capacity in work units/second at deployment scale (the
    #: 128-core host has ample headroom for Main). Demand beyond this
    #: overflows the ingest buffers (= stream loss).
    capacity_units_per_sec: float = 9.5e6

    # Memory calibration.
    bytes_per_entry: float = 600.0
    #: exact-TTL entries cost far more resident memory per live entry:
    #: (value, expiry) tuples, tombstones from eager deletes, and hashmap
    #: growth that never shrinks because the sweeper can't keep up
    #: (A.8: memory doubled while only 10 % of the data arrived).
    exact_ttl_entry_multiplier: float = 10.0
    per_worker_bytes: float = 96.0 * 1024 * 1024
    base_bytes: float = 1.5 * GIB

    # Workload scale factors (set by the ISP preset). Record *rates* and
    # unique map *entries* scale differently between the simulation and
    # the deployment being modelled: rates scale with traffic volume,
    # while unique keys saturate against the (much larger) real domain/IP
    # universe. ``rate_scale`` maps sim *flow* record rates to deployment
    # rates, ``dns_rate_scale`` maps sim DNS record rates (the two ratios
    # differ per deployment: 1M:75K at the large ISP, 138K:115K at the
    # small one), and ``entry_scale`` maps sim map-entry counts.
    rate_scale: float = 1.0
    dns_rate_scale: float = 1.0
    entry_scale: float = 1.0


@dataclass
class IntervalCounters:
    """Raw operation counts accumulated over one sampling interval."""

    duration: float = 0.0
    dns_records: int = 0
    flow_records: int = 0
    flow_bytes: int = 0
    correlated_bytes: int = 0
    matched_flows: int = 0
    cname_steps: int = 0
    writes: int = 0
    rotation_entries: int = 0
    sweep_scanned: int = 0

    def dns_work_units(self, params: CostModelParams, num_splits: int, exact_ttl: bool) -> float:
        """Work proportional to the DNS record rate."""
        split_factor = 1.0 + params.split_overhead_per_extra * max(0, num_splits - 1)
        units = self.dns_records * params.cost_fillup * split_factor
        if exact_ttl:
            units *= params.exact_ttl_op_multiplier
        return units

    def flow_work_units(self, params: CostModelParams, num_splits: int, exact_ttl: bool) -> float:
        """Work proportional to the flow record rate."""
        split_factor = 1.0 + params.split_overhead_per_extra * max(0, num_splits - 1)
        units = (
            self.flow_records * params.cost_lookup
            + self.cname_steps * params.cost_cname_step
            + self.writes * params.cost_write
        ) * split_factor
        if exact_ttl:
            units *= params.exact_ttl_op_multiplier
        return units

    def entry_work_units(self, params: CostModelParams) -> float:
        """Work proportional to map *entries* (scales with entry_scale)."""
        return (
            self.rotation_entries * params.cost_rotation_per_entry
            + self.sweep_scanned * params.cost_sweep_per_entry
        )


@dataclass
class IntervalSample:
    """One point of the Figure 2/3 time series."""

    t_start: float
    t_end: float
    cpu_percent: float
    memory_bytes: float
    traffic_bytes: int
    correlated_bytes: int
    dns_records: int
    flow_records: int
    loss_rate: float
    map_entries: int

    @property
    def correlation_rate(self) -> float:
        return self.correlated_bytes / self.traffic_bytes if self.traffic_bytes else 0.0

    @property
    def memory_gb(self) -> float:
        return self.memory_bytes / GIB


class CostModel:
    """Turns interval counters + storage state into CPU/memory/loss samples."""

    def __init__(self, params: CostModelParams, num_splits: int, exact_ttl: bool, workers: int):
        self.params = params
        self.num_splits = num_splits
        self.exact_ttl = exact_ttl
        self.workers = workers

    def cpu_percent(self, counters: IntervalCounters) -> float:
        """Modelled CPU usage (100 % = one full core), deployment scale."""
        baseline = self.workers * self.params.per_worker_cpu_percent
        return baseline + self.demand_units_per_sec(counters) * self.params.cpu_scale

    def demand_units_per_sec(self, counters: IntervalCounters) -> float:
        if counters.duration <= 0:
            return 0.0
        flow_part = (
            counters.flow_work_units(self.params, self.num_splits, self.exact_ttl)
            * self.params.rate_scale
        )
        dns_part = (
            counters.dns_work_units(self.params, self.num_splits, self.exact_ttl)
            * self.params.dns_rate_scale
        )
        entry_part = counters.entry_work_units(self.params) * self.params.entry_scale
        return (flow_part + dns_part + entry_part) / counters.duration

    def loss_rate(self, counters: IntervalCounters) -> float:
        """Modelled stream loss: excess demand over engine capacity.

        When demand ≤ capacity the buffers stay stable (the paper's goal);
        beyond capacity the streams drop the un-servable fraction. This is
        what produces the >90 % loss of the exact-TTL variant.
        """
        demand = self.demand_units_per_sec(counters)
        capacity = self.params.capacity_units_per_sec
        if demand <= capacity:
            return 0.0
        return 1.0 - capacity / demand

    def memory_bytes(self, map_entries: int) -> float:
        """Modelled RSS at deployment scale from live map entries."""
        per_entry = self.params.bytes_per_entry
        if self.exact_ttl:
            per_entry *= self.params.exact_ttl_entry_multiplier
        return (
            self.params.base_bytes
            + map_entries * self.params.entry_scale * per_entry
            + self.workers * self.params.per_worker_bytes
        )


@dataclass
class IngestStats:
    """Per-source ingest counters for socket-fed pipeline sources.

    Models the paper's loss point at the collector's edge: a receiver
    (UDP datagram listener, DNS-over-TCP server, or the blocking
    :class:`repro.netflow.udp.UdpFlowSource`) counts what arrived off the
    wire, what it managed to hand to the pipeline, and what it had to
    drop when its bounded buffer was full (backpressure). Engines attach
    one of these per socket source under :attr:`EngineReport.ingest`.
    """

    name: str = "ingest"
    #: Wire units received (UDP datagrams / framed TCP messages).
    received: int = 0
    #: Items actually handed to the pipeline's buffers.
    accepted: int = 0
    #: Items dropped because the bounded ingest buffer was full.
    dropped: int = 0
    #: Wire units that failed to decode/frame (counted, never raised).
    malformed: int = 0
    bytes_in: int = 0
    #: The *achieved* kernel receive buffer (``getsockopt(SO_RCVBUF)``
    #: after the best-effort ``setsockopt``): the kernel silently clamps
    #: requests to rmem_max, and an undersized buffer is the usual cause
    #: of burst drops on CI hosts — it must be visible in the report, not
    #: guessed from the request. 0 for sources without a socket.
    recv_buffer_bytes: int = 0

    @property
    def loss_rate(self) -> float:
        """Fraction of received wire units that were dropped."""
        return self.dropped / self.received if self.received else 0.0


@dataclass
class BufferStats:
    """Counters describing one bounded ingress buffer's lifetime.

    Section 2's loss point: a full buffer drops the *incoming* record
    and counts it; :func:`repro.core.pipeline.buffer_loss_rate` folds
    these into :attr:`EngineReport.overall_loss_rate`.
    """

    offered: int = 0
    accepted: int = 0
    dropped: int = 0


def merge_ingest_stats(name: str, parts) -> "IngestStats":
    """Fold per-worker :class:`IngestStats` into one source-level view.

    Counters sum; ``recv_buffer_bytes`` takes the *minimum* non-zero
    achieved size — the most pessimistic worker bounds the burst the
    reuseport socket set can absorb, which is the number an operator
    diagnosing drops needs.
    """
    merged = IngestStats(name=name)
    buffers = []
    for part in parts:
        merged.received += part.received
        merged.accepted += part.accepted
        merged.dropped += part.dropped
        merged.malformed += part.malformed
        merged.bytes_in += part.bytes_in
        if part.recv_buffer_bytes:
            buffers.append(part.recv_buffer_bytes)
    merged.recv_buffer_bytes = min(buffers) if buffers else 0
    return merged


@dataclass
class EngineReport:
    """Everything one engine run produced, for benches and tests."""

    samples: List[IntervalSample] = field(default_factory=list)
    total_bytes: int = 0
    correlated_bytes: int = 0
    dns_records: int = 0
    flow_records: int = 0
    matched_flows: int = 0
    overall_loss_rate: float = 0.0
    max_write_delay: float = 0.0
    chain_lengths: Dict[int, int] = field(default_factory=dict)
    final_map_entries: int = 0
    overwrites: int = 0
    #: Entries dropped by the ``max_entries_per_map`` memory bound across
    #: all stores; 0 when the bound is unset or never hit.
    evictions: int = 0
    #: Ingest worker processes respawned by supervision after dying
    #: mid-run; 0 for unsupervised or clean runs.
    worker_restarts: int = 0
    #: Periodic snapshots written during the run (``serve --snapshot``).
    snapshots_written: int = 0
    #: Entries restored from a snapshot at start-up (restore-on-start).
    restored_entries: int = 0
    #: DNS wire messages that failed the FillUp filter (unparseable or
    #: invalid) — counted where decode happens (the engine's fill lanes)
    #: so corrupted input is never silently absorbed.
    dns_invalid: int = 0
    #: Flow export datagrams that failed to decode (malformed or
    #: unknown-version), summed over the run's lane collectors. Covers
    #: the offline/replay paths whose decode errors are not already
    #: charged to a live source's :class:`IngestStats`.
    flow_decode_errors: int = 0
    duration: float = 0.0
    variant_name: str = "main"
    #: Per-source ingest counters for socket-fed sources (keyed by source
    #: name); empty for runs whose sources are plain iterables.
    ingest: Dict[str, IngestStats] = field(default_factory=dict)
    #: Run-level anomalies a caller should not have to scrape stderr for
    #: (e.g. ingress buffer overflow, a source failing mid-stream). Empty
    #: for a clean run.
    warnings: List[str] = field(default_factory=list)

    @property
    def correlation_rate(self) -> float:
        return self.correlated_bytes / self.total_bytes if self.total_bytes else 0.0

    @property
    def mean_cpu_percent(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.cpu_percent for s in self.samples) / len(self.samples)

    @property
    def peak_memory_gb(self) -> float:
        if not self.samples:
            return 0.0
        return max(s.memory_bytes for s in self.samples) / GIB

    @property
    def mean_memory_gb(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.memory_bytes for s in self.samples) / len(self.samples) / GIB

    def hourly_correlation_rates(self) -> List[float]:
        """Correlation rate per sample interval (Figure 7's series)."""
        return [s.correlation_rate for s in self.samples if s.traffic_bytes]


def dedupe_warnings(warnings: List[str]) -> List[str]:
    """Collapse repeated warning messages to ``message ×N``.

    A chaos run can emit the same source-failure warning hundreds of
    times (one per faulted connection); the report must stay readable
    and bounded. First-occurrence order is preserved; a message seen
    once passes through unchanged.
    """
    counts: Dict[str, int] = {}
    for message in warnings:
        counts[message] = counts.get(message, 0) + 1
    return [
        message if count == 1 else f"{message} ×{count}"
        for message, count in counts.items()
    ]
