"""Shared experiment runners and report builders.

The benchmark harness regenerates every figure/table through these
helpers so that tests, benches, and examples all measure the same way.
Each builder returns plain data (dicts/lists) plus a ``rows()``-style
formatter that prints ``paper=<x> measured=<y>`` lines.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import FlowDNSConfig
from repro.core.lookup import CorrelationResult
from repro.core.metrics import EngineReport
from repro.core.simulation import SimulationEngine
from repro.core.variants import Variant, config_for
from repro.workloads.isp import IspWorkload


@dataclass
class VariantRun:
    """One variant's engine report plus derived summaries."""

    variant: Variant
    report: EngineReport

    @property
    def mean_cpu_percent(self) -> float:
        return self.report.mean_cpu_percent

    @property
    def mean_memory_gb(self) -> float:
        return self.report.mean_memory_gb


def run_variant(
    workload: IspWorkload,
    variant: Variant,
    base_config: Optional[FlowDNSConfig] = None,
    sample_interval: float = 3600.0,
    on_result=None,
    drop_warmup: bool = True,
) -> VariantRun:
    """Run one variant over a workload with the preset's cost model."""
    config = config_for(variant, base_config)
    engine = SimulationEngine(
        config=config,
        cost_params=workload.cost_params,
        sample_interval=sample_interval,
        worker_count=workload.worker_count,
        variant_name=variant.value,
        on_result=on_result,
    )
    report = engine.run(workload.dns_records(), workload.flow_records())
    if drop_warmup:
        report = strip_warmup(report, workload.t0)
    return VariantRun(variant=variant, report=report)


def strip_warmup(report: EngineReport, t0: float) -> EngineReport:
    """Drop samples that lie (partly) in the warm-up window.

    The workload emits DNS from ``t0 - warmup`` but flows only from
    ``t0``; the warm-up samples carry no traffic and would dilute means.
    """
    kept = [s for s in report.samples if s.t_start >= t0]
    report.samples = kept
    report.total_bytes = sum(s.traffic_bytes for s in kept)
    report.correlated_bytes = sum(s.correlated_bytes for s in kept)
    report.dns_records = sum(s.dns_records for s in kept)
    report.flow_records = sum(s.flow_records for s in kept)
    return report


class ServiceBytesCollector:
    """on_result hook aggregating correlated bytes per resolved service."""

    def __init__(self) -> None:
        self.bytes_by_service: Dict[str, int] = defaultdict(int)
        self.results_seen = 0

    def __call__(self, result: CorrelationResult) -> None:
        self.results_seen += 1
        if result.matched:
            self.bytes_by_service[result.service] += result.flow.bytes_


class ResultRecorder:
    """on_result hook retaining full results (small runs only)."""

    def __init__(self) -> None:
        self.results: List[CorrelationResult] = []

    def __call__(self, result: CorrelationResult) -> None:
        self.results.append(result)


def chain_length_ecdf(report: EngineReport) -> List[Tuple[int, float]]:
    """Figure 6: (chain length, cumulative fraction) from a run's chains."""
    total = sum(report.chain_lengths.values())
    out: List[Tuple[int, float]] = []
    acc = 0
    for length in sorted(report.chain_lengths):
        acc += report.chain_lengths[length]
        out.append((length, acc / total if total else 0.0))
    return out


def comparison_row(label: str, paper, measured, unit: str = "") -> str:
    """One standard paper-vs-measured output row."""
    if isinstance(paper, float):
        paper_s = f"{paper:.3f}"
    else:
        paper_s = str(paper)
    if isinstance(measured, float):
        measured_s = f"{measured:.3f}"
    else:
        measured_s = str(measured)
    suffix = f" {unit}" if unit else ""
    return f"{label:<44s} paper={paper_s}{suffix:<6s} measured={measured_s}{suffix}"
