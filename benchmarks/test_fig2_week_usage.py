"""Figure 2: CPU and memory usage for the Main benchmark over a week.

Paper anchors: CPU around 2500 % (25 cores) in a 2200–2600 band, memory
oscillating between 15 and 30 GB, and all three series (traffic, CPU,
memory) showing diurnal patterns with evening peaks.

The week is simulated at a reduced record rate (the cost model's scale
factors map resources back to deployment scale), which keeps the bench
under a minute while preserving 7 full diurnal cycles.
"""

import math

from conftest import print_rows

from repro.analysis import comparison_row, run_variant
from repro.core.variants import Variant
from repro.workloads.isp import large_isp

WEEK = 7 * 86400.0


def _run_week():
    workload = large_isp(seed=7, duration=WEEK, resolution_rate=0.3)
    return workload, run_variant(workload, Variant.MAIN, sample_interval=3600.0).report


def _pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    vy = math.sqrt(sum((y - my) ** 2 for y in ys))
    return cov / (vx * vy) if vx and vy else 0.0


def test_fig2_week_cpu_and_memory():
    workload, report = _run_week()
    cpus = [s.cpu_percent for s in report.samples]
    mems = [s.memory_bytes / 2**30 for s in report.samples]
    traffic = [s.traffic_bytes for s in report.samples]

    rows = [
        comparison_row("mean CPU %  (paper ~2450)", 2450.0, sum(cpus) / len(cpus)),
        comparison_row("min CPU %   (paper ~2200)", 2200.0, min(cpus)),
        comparison_row("max CPU %   (paper ~2600)", 2600.0, max(cpus)),
        comparison_row("min memory GB (paper ~15)", 15.0, min(mems)),
        comparison_row("max memory GB (paper ~30)", 30.0, max(mems)),
        comparison_row("CPU-traffic correlation (diurnal)", 0.9, _pearson(cpus, traffic)),
    ]
    print_rows("Figure 2: Main over one simulated week", rows)

    # A full week of hourly samples.
    assert len(report.samples) >= 7 * 24 - 1
    # CPU band: within ~25% of the paper's absolute figures.
    assert 1800 <= min(cpus) and max(cpus) <= 3400
    # Memory band overlaps the paper's 15-30 GB corridor.
    assert 8.0 <= min(mems) and max(mems) <= 36.0
    assert max(mems) - min(mems) >= 2.0  # visible oscillation
    # CPU follows the traffic volume (the diurnal pattern).
    assert _pearson(cpus, traffic) > 0.8
    # Peak CPU lands in the evening hours (18:00-23:00 local).
    peak = max(report.samples, key=lambda s: s.cpu_percent)
    peak_hour = (peak.t_start % 86400.0) / 3600.0
    assert 17.0 <= peak_hour <= 23.5
