"""Section 4 "Coverage": public-resolver share of DNS traffic.

Paper anchor: filtering one hour of Netflow to ports 53/853 and testing
against a public-resolver list, "1 out of every 20 DNS packets is sent
to a public DNS resolver. Therefore, the coverage of our DNS data is 95%."
"""

from conftest import print_rows

from repro.analysis import comparison_row, estimate_coverage
from repro.workloads.isp import large_isp


def test_coverage_95pct():
    def analyze():
        workload = large_isp(seed=17, duration=3600.0)
        return estimate_coverage(workload.flow_records())

    report = analyze()
    rows = [
        comparison_row("public-resolver DNS share", 0.05, report.public_fraction),
        comparison_row("DNS data coverage", 0.95, report.coverage),
        f"DNS/DoT flows inspected: {report.dns_flows}",
    ]
    print_rows("Section 4: coverage via public resolvers", rows)

    assert report.dns_flows > 500
    assert abs(report.public_fraction - 0.05) < 0.02
    assert abs(report.coverage - 0.95) < 0.02
