"""Design-space ablation: the clear-up interval.

The paper fixes AClearUpInterval=3600 from the TTL ECDF. This bench
sweeps it: shorter intervals save memory but cost correlation (more
records expire before their flows arrive); the deployed 3600 s sits at
the knee. (The paper's worker-count trade-off is not measured here: no
live engine has a worker-count parameter, and under the GIL extra
threads would buy no parallelism. ``SimulationEngine(worker_count=)``
models it in the cost model instead.)
"""


import pytest

from conftest import print_rows

from repro.analysis import run_variant
from repro.core.config import FlowDNSConfig
from repro.core.variants import Variant
from repro.workloads.isp import large_isp

_INTERVAL_RESULTS = {}


@pytest.mark.parametrize("interval", [900.0, 1800.0, 3600.0, 7200.0])
def test_ablation_clear_up_interval(benchmark, interval):
    def run():
        workload = large_isp(seed=37, duration=6 * 3600.0, n_benign=600)
        config = FlowDNSConfig(
            a_clear_up_interval=interval, c_clear_up_interval=2 * interval
        )
        return run_variant(workload, Variant.MAIN, base_config=config).report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    _INTERVAL_RESULTS[interval] = (
        report.correlation_rate,
        report.mean_memory_gb,
    )
    assert report.correlation_rate > 0.6
    if len(_INTERVAL_RESULTS) == 4:
        rows = [
            f"A-interval={k:6.0f}s  correlation={v[0]:.4f}  mean memory={v[1]:5.1f} GiB"
            for k, v in sorted(_INTERVAL_RESULTS.items())
        ]
        print_rows("Ablation: clear-up interval sweep", rows)
        rates = [v[0] for _k, v in sorted(_INTERVAL_RESULTS.items())]
        mems = [v[1] for _k, v in sorted(_INTERVAL_RESULTS.items())]
        # Longer retention never hurts correlation; the extremes order on
        # memory too (mid-points wobble with sampling phase vs rotation).
        assert rates == sorted(rates)
        assert mems[-1] > mems[0]
        # The deployed 3600 captures nearly all of 7200's correlation.
        assert rates[3] - rates[2] < 0.01
