"""Appendix A.8: applying the exact TTLs (the rejected design).

Paper anchors: "the internal buffers of all the streams start to
overload from the very first minutes … with the loss rate of over 90%",
and "the memory usage is doubled although only 10% of the data is
received at the system".
"""

from conftest import print_rows

from repro.analysis import comparison_row, run_variant
from repro.core.variants import Variant
from repro.workloads.isp import large_isp

TWO_HOURS = 2 * 3600.0


def _run_pair():
    exact = run_variant(
        large_isp(seed=7, duration=TWO_HOURS),
        Variant.EXACT_TTL,
        sample_interval=300.0,
    ).report
    main = run_variant(
        large_isp(seed=7, duration=TWO_HOURS),
        Variant.MAIN,
        sample_interval=300.0,
    ).report
    return exact, main


def test_a8_exact_ttl_meltdown():
    exact, main = _run_pair()
    steady_loss = [s.loss_rate for s in exact.samples[2:]]
    mean_loss = sum(steady_loss) / len(steady_loss)
    exact_mem = exact.samples[-1].memory_bytes / 2**30
    main_mem = main.samples[-1].memory_bytes / 2**30
    # Steady-state receipt (the paper's "only 10% of the data is
    # received"); the overall average is diluted by the loss-free
    # warm-up interval before the buffers first overflow.
    received_fraction = 1.0 - mean_loss
    rows = [
        comparison_row("steady-state loss rate", 0.90, mean_loss),
        comparison_row("memory vs Main (×)", 2.0, exact_mem / main_mem),
        comparison_row("fraction of data received", 0.10, received_fraction),
        f"exact-TTL memory after run: {exact_mem:.1f} GiB (Main: {main_mem:.1f} GiB)",
    ]
    print_rows("Appendix A.8: exact-TTL expiry", rows)

    # Loss >90% in steady state, starting within the first minutes.
    assert mean_loss > 0.90
    assert exact.samples[1].loss_rate > 0.5  # "from the very first minutes"
    # Main never loses anything on the same workload.
    assert main.overall_loss_rate == 0.0
    # Memory well above Main's despite receiving a fraction of the data.
    assert exact_mem > 1.4 * main_mem
    assert received_fraction < 0.15
