"""Figure 9 / Appendix A.7: domain names per IP address.

Paper anchors: in a 300 s window, 88 % of IPs map to a single name
(hence accuracy is exact for ≥88 % of IPs); 35 % of names map to more
than one IP (which by design does not hurt accuracy); a 1-hour sample
shows similar results.
"""

from conftest import print_rows

from repro.analysis import comparison_row, names_per_ip
from repro.workloads.isp import large_isp


def test_fig9_names_per_ip_300s():
    def analyze():
        workload = large_isp(seed=19, duration=2400.0)
        return names_per_ip(workload.dns_records(), window=300.0, t_start=0.0)

    report = analyze()
    ecdf = report.names_per_ip_ecdf()
    rows = [
        comparison_row("IPs with a single name (300 s)", 0.88, report.single_name_fraction),
        comparison_row("names with >1 IP (300 s)", 0.35, report.multi_ip_name_fraction),
        comparison_row("accuracy lower bound", 0.88, report.expected_accuracy_lower_bound),
        "names/IP ECDF: " + " ".join(f"({x:.0f},{y:.3f})" for x, y in ecdf.points()[:8]),
    ]
    print_rows("Figure 9: names per IP (300 s window)", rows)

    assert 0.82 <= report.single_name_fraction <= 0.95
    assert 0.25 <= report.multi_ip_name_fraction <= 0.48


def test_fig9_one_hour_similar():
    """Paper: 'We also did the analysis with a 1-hour sample and observed
    similar results.'"""

    def analyze():
        workload = large_isp(seed=19, duration=2 * 3600.0)
        short = names_per_ip(workload.dns_records(), window=300.0, t_start=0.0)
        long_ = names_per_ip(workload.dns_records(), window=3600.0, t_start=0.0)
        return short, long_

    short, long_ = analyze()
    rows = [
        comparison_row("single-name IPs, 300 s", 0.88, short.single_name_fraction),
        comparison_row("single-name IPs, 1 h", 0.88, long_.single_name_fraction),
    ]
    print_rows("Appendix A.7: window robustness", rows)
    # Longer windows see more collisions but most IPs stay single-named.
    # (Deviation note: our synthetic pools re-use IPs more than the
    # real Internet does, so the 1-hour figure drifts lower than the
    # paper's "similar results" — recorded in EXPERIMENTS.md.)
    assert long_.single_name_fraction >= 0.45
    assert short.single_name_fraction > long_.single_name_fraction
