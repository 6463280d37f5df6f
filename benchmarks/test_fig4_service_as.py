"""Figure 4: cumulative traffic volume per source AS for services S1/S2.

Paper anchors: "the traffic corresponding to the streaming service S1 is
originated mostly from only one AS, while the streaming service S2 is
originated mainly by two ASes", both with diurnal patterns.
"""

from collections import defaultdict

from conftest import print_rows


def test_fig4_s1_one_as_s2_two_ases(main_day):
    bgp = main_day["bgp"]

    s1_totals = bgp.totals_by_asn("s1-streaming.tv")
    s2_totals = bgp.totals_by_asn("s2-streaming.tv")
    rows = [
        f"S1 bytes by AS: { {asn: f'{b/1e9:.1f}GB' for asn, b in sorted(s1_totals.items())} }",
        f"S2 bytes by AS: { {asn: f'{b/1e9:.1f}GB' for asn, b in sorted(s2_totals.items())} }",
        f"S1 dominant ASes paper=1 measured={len(bgp.dominant_asns('s1-streaming.tv'))}",
        f"S2 dominant ASes paper=2 measured={len(bgp.dominant_asns('s2-streaming.tv'))}",
    ]
    print_rows("Figure 4: per-source-AS volume for S1 / S2", rows)

    assert len(bgp.dominant_asns("s1-streaming.tv", coverage=0.95)) == 1
    assert len(bgp.dominant_asns("s2-streaming.tv", coverage=0.95)) == 2
    # S2's two ASes both carry a substantial share (not 99/1).
    shares = sorted(s2_totals.values(), reverse=True)
    assert shares[1] / sum(shares) > 0.15


def test_fig4_diurnal_pattern(main_day):
    bgp = main_day["bgp"]
    # Hourly series for S1's dominant AS must show a diurnal swing.
    asn = bgp.dominant_asns("s1-streaming.tv")[0]
    hourly = defaultdict(int)
    for (svc, a, hour), nbytes in bgp.buckets.items():
        if svc == "s1-streaming.tv" and a == asn:
            hourly[hour] += nbytes
    series = [hourly[h] for h in sorted(hourly)]
    assert len(series) >= 20
    assert max(series) > 1.5 * min(s for s in series if s > 0)
    print_rows(
        "Figure 4a: S1 hourly volume (dominant AS)",
        ["hourly GB: " + " ".join(f"{v/1e9:.1f}" for v in series)],
    )
