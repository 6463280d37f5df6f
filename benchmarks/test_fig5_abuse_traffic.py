"""Figure 5 + Section 5: abuse-category traffic and invalid domain names.

Paper anchors:
* of ~1M sampled names, 612 are DBL-listed: 512 spam, 41 botnet C&C,
  34 abused redirectors, 11 malware, 3 phishing;
* 666k of 39M names (~1.7 %) violate RFC 1035; '_' offends in 87 %;
* malformed + spam domains carry ~0.5 % of daily bytes;
* per category, few domains carry most of the bytes (cumulative curves);
* 2.7 % of receiving clients reply, to 23.6 % of malformed domains,
  mostly on non-web ports.
"""

from conftest import print_rows

from repro.analysis import ResultRecorder, comparison_row, run_variant
from repro.analysis.invalid_domains import analyze_invalid_domains
from repro.analysis.spamdbl import DBL_CATEGORIES, DomainBlockList, analyze_abuse_traffic
from repro.core.variants import Variant
from repro.workloads.isp import large_isp
from repro.workloads.malicious import PAPER_DBL_COUNTS_PER_MILLION


def test_fig5_category_curves(main_day):
    def analyze():
        workload = main_day["workload"]
        dbl = DomainBlockList.from_categories(workload.universe.abuse.by_category)
        return analyze_abuse_traffic(main_day["service_bytes"].bytes_by_service, dbl)

    report = analyze()
    counts = report.category_counts()
    universe_size = len(main_day["workload"].universe.services)
    rows = []
    for category in DBL_CATEGORIES:
        paper_per_m = PAPER_DBL_COUNTS_PER_MILLION[category]
        rows.append(
            f"{category:<18s} listed-with-traffic={counts.get(category, 0):4d} "
            f"(paper {paper_per_m}/1M names; universe here {universe_size} services)"
        )
    rows.append(comparison_row("abuse byte share", 0.005, report.abuse_byte_share()))
    print_rows("Figure 5: DBL categories over one simulated day", rows)

    # Every category must observe traffic, and spam must dominate by count.
    for category in DBL_CATEGORIES:
        assert counts.get(category, 0) > 0, category
    assert counts["spam"] == max(counts.values())
    # Heavy-tail shape: in each category the top 20% of domains carry
    # well over their proportional byte share (Figure 5's "only a
    # limited number of domain names account for a large fraction").
    for category in DBL_CATEGORIES:
        curve = report.cumulative_curve(category)
        top = max(1, len(curve) // 5)
        proportional = top / len(curve)
        assert curve[top - 1][1] > 1.4 * proportional, category
    # Abuse byte share near the paper's 0.5 % (with spam ∪ malformed below).
    assert 0.001 < report.abuse_byte_share() < 0.012


def test_section5_invalid_domains():
    def run():
        workload = large_isp(seed=23, duration=6 * 3600.0, n_benign=2000)
        recorder = ResultRecorder()
        run_variant(workload, Variant.MAIN, on_result=recorder)
        return analyze_invalid_domains(recorder.results)

    report = run()
    rows = [
        comparison_row("invalid / seen names", 666_000 / 39_000_000, report.invalid_name_fraction),
        comparison_row("underscore share of violators", 0.87, report.underscore_share),
        comparison_row("malformed byte share", 0.005, report.invalid_byte_share),
        comparison_row("replying client fraction", 0.027, report.replying_client_fraction),
        comparison_row("replied domain fraction", 0.236, report.replied_domain_fraction),
        f"reply ports: {dict(report.reply_ports)}",
    ]
    print_rows("Section 5: invalid domain names", rows)

    assert report.invalid_names > 0
    # Several percent of *names*, sub-percent of *bytes* — the paper's shape.
    assert 0.001 <= report.invalid_name_fraction <= 0.2
    assert 0.0005 <= report.invalid_byte_share <= 0.02
    assert 0.75 <= report.underscore_share <= 0.95
    # Bi-directional traffic exists, on non-web ports.
    assert report.replying_clients
    assert set(report.reply_ports) <= {"openvpn", "kerberos"}
    # The curve: almost all malformed bytes come from few domains.
    curve = report.cumulative_curve()
    top = max(1, len(curve) // 5)
    assert curve[top - 1][1] > 0.5
