"""Figure 7 (+ Section 4 text): correlation rate per variant.

Paper means: Main 81.7 %, No Clear-Up 82.8 %, No Long 81.1 %,
No Rotation 79.5 %. No Split overlaps Main completely and is excluded
from the figure.
"""

from conftest import print_rows

from repro.analysis import comparison_row
from repro.core.variants import Variant

PAPER_RATES = {
    Variant.MAIN: 0.817,
    Variant.NO_CLEAR_UP: 0.828,
    Variant.NO_LONG: 0.811,
    Variant.NO_ROTATION: 0.795,
}


def test_fig7_correlation_rates(variant_runs):
    reports = variant_runs
    measured = {v: reports[v].correlation_rate for v in PAPER_RATES}
    rows = [
        comparison_row(f"correlation rate: {v.value}", paper, measured[v])
        for v, paper in PAPER_RATES.items()
    ]
    print_rows("Figure 7: correlation rate per variant", rows)

    # Ordering: NoClearUp >= Main > NoLong > NoRotation.
    assert measured[Variant.NO_CLEAR_UP] >= measured[Variant.MAIN] - 0.002
    assert measured[Variant.MAIN] > measured[Variant.NO_ROTATION]
    assert measured[Variant.MAIN] >= measured[Variant.NO_LONG]
    assert measured[Variant.NO_LONG] > measured[Variant.NO_ROTATION]
    # Absolute values within 2.5 points of the paper.
    for variant, paper in PAPER_RATES.items():
        assert abs(measured[variant] - paper) < 0.025, variant

    # No Split "has a complete overlap with the Main benchmark".
    no_split = reports[Variant.NO_SPLIT].correlation_rate
    assert abs(no_split - measured[Variant.MAIN]) < 1e-9


def test_fig7_hourly_series_stable(variant_runs):
    reports = variant_runs
    main_hourly = reports[Variant.MAIN].hourly_correlation_rates()
    rows = [
        "main hourly: " + " ".join(f"{r:.3f}" for r in main_hourly),
    ]
    print_rows("Figure 7: hourly correlation (Main)", rows)
    # The paper's Figure 7 y-range is ~0.75-0.90 for all hours.
    assert all(0.72 <= r <= 0.92 for r in main_hourly)
