"""Headline metrics (Section 4): correlation rate, loss, write delay.

Paper: "The ratio of correlated traffic to the total traffic … is 81.7%
on average for both deployments", "without any significant loss, i.e.
0.01% loss", "results are written to disk by a maximum delay of 45
seconds".
"""

from conftest import print_rows

from repro.analysis import comparison_row, run_variant
from repro.core.variants import Variant
from repro.workloads.isp import small_isp

PAPER_CORRELATION = 0.817
PAPER_MAX_LOSS = 0.0001
PAPER_MAX_WRITE_DELAY = 45.0


def test_large_isp_headline(main_day):
    report = main_day["report"]
    rows = [
        comparison_row("correlation rate (bytes)", PAPER_CORRELATION, report.correlation_rate),
        comparison_row("stream loss rate", PAPER_MAX_LOSS, report.overall_loss_rate),
        comparison_row("max write delay (s)", PAPER_MAX_WRITE_DELAY, report.max_write_delay),
    ]
    print_rows("Headline: large ISP, one simulated day", rows)
    assert abs(report.correlation_rate - PAPER_CORRELATION) < 0.025
    assert report.overall_loss_rate <= PAPER_MAX_LOSS
    assert report.max_write_delay <= PAPER_MAX_WRITE_DELAY


def test_small_isp_headline():
    def run():
        workload = small_isp(seed=11, duration=43200.0)
        return run_variant(workload, Variant.MAIN).report

    report = run()
    rows = [
        comparison_row("correlation rate (bytes)", PAPER_CORRELATION, report.correlation_rate),
        comparison_row("mean CPU (%, paper ~300)", 300.0, report.mean_cpu_percent),
        comparison_row("mean memory (GB, paper ~6)", 6.0, report.mean_memory_gb),
    ]
    print_rows("Headline: small ISP, half a simulated day", rows)
    assert abs(report.correlation_rate - PAPER_CORRELATION) < 0.025
    assert 150.0 <= report.mean_cpu_percent <= 600.0
    assert 3.0 <= report.mean_memory_gb <= 9.0
