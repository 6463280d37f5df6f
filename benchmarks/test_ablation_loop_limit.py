"""Design-choice ablation beyond the paper's four variants: CNAME
loop-limit sensitivity (the paper chose 6)."""

import pytest

from conftest import print_rows

from repro.analysis import run_variant
from repro.core.config import FlowDNSConfig
from repro.core.variants import Variant
from repro.workloads.isp import large_isp


@pytest.mark.parametrize("loop_limit", [1, 3, 6, 10])
def test_ablation_loop_limit(loop_limit):
    """Correlation is insensitive above ~6 (the paper's chain ECDF)."""

    def run():
        workload = large_isp(seed=31, duration=3600.0, n_benign=400)
        config = FlowDNSConfig(cname_loop_limit=loop_limit)
        return run_variant(workload, Variant.MAIN, base_config=config).report

    report = run()
    # Store per-limit results on the module for the final comparison.
    _RESULTS[loop_limit] = report.correlation_rate
    assert report.correlation_rate > 0.5
    if 6 in _RESULTS and 10 in _RESULTS:
        assert abs(_RESULTS[10] - _RESULTS[6]) < 0.005
        print_rows(
            "Ablation: CNAME loop limit",
            [f"limit={k:<3d} correlation={v:.4f}" for k, v in sorted(_RESULTS.items())],
        )


_RESULTS = {}
