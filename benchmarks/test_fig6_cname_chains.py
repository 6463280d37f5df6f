"""Figure 6 / Appendix A.4: CNAME chain length ECDF.

Paper anchor: "more than 99% of the DNS records can be mapped with a
chain of 6 look-ups", tail extending to ~17.
"""

from conftest import print_rows

from repro.analysis import chain_length_ecdf, comparison_row


def test_fig6_chain_length_ecdf(main_day):
    ecdf = chain_length_ecdf(main_day["report"])
    as_dict = dict(ecdf)
    at_6 = max(frac for length, frac in ecdf if length <= 6)
    rows = [
        "ECDF points: " + " ".join(f"({l},{f:.4f})" for l, f in ecdf),
        comparison_row("fraction mapped within 6 look-ups", 0.99, at_6),
    ]
    print_rows("Figure 6: CNAME chain length ECDF", rows)

    assert at_6 >= 0.99
    # Chains of length 1 (plain A) and 2 (one CNAME) dominate.
    assert as_dict.get(2, 0.0) > 0.5
    # ECDF is monotone.
    fracs = [f for _l, f in ecdf]
    assert fracs == sorted(fracs)
    assert abs(fracs[-1] - 1.0) < 1e-9
