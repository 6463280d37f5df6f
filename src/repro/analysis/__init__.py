"""Analysis layer: the paper's Section 4/5 measurements over FlowDNS output.

* :mod:`repro.analysis.spamdbl` — DBL-style blocklist joins (Figure 5);
* :mod:`repro.analysis.public_resolvers` — the 95 % coverage estimate;
* :mod:`repro.analysis.invalid_domains` — RFC 1035 violator traffic;
* :mod:`repro.analysis.accuracy` — names-per-IP / mislabelling bounds
  (Figure 9, Appendix A.7);
* :mod:`repro.analysis.reports` — shared experiment runners for the
  benchmark harness.
"""

from repro.analysis.accuracy import NamesPerIpReport, names_per_ip
from repro.analysis.figures import (
    figure2_rows,
    figure3_rows,
    figure7_rows,
    render_report_summary,
    sparkline,
    write_tsv,
)
from repro.analysis.invalid_domains import InvalidDomainReport, analyze_invalid_domains
from repro.analysis.public_resolvers import (
    DEFAULT_PUBLIC_RESOLVERS,
    CoverageReport,
    PublicResolverList,
    estimate_coverage,
    is_dns_flow,
)
from repro.analysis.reports import (
    ResultRecorder,
    ServiceBytesCollector,
    VariantRun,
    chain_length_ecdf,
    comparison_row,
    run_variant,
    strip_warmup,
)
from repro.analysis.spamdbl import (
    DBL_CATEGORIES,
    AbuseTrafficReport,
    DblEntry,
    DomainBlockList,
    analyze_abuse_traffic,
)

__all__ = [
    "names_per_ip",
    "NamesPerIpReport",
    "analyze_invalid_domains",
    "InvalidDomainReport",
    "estimate_coverage",
    "is_dns_flow",
    "CoverageReport",
    "PublicResolverList",
    "DEFAULT_PUBLIC_RESOLVERS",
    "run_variant",
    "strip_warmup",
    "VariantRun",
    "ServiceBytesCollector",
    "ResultRecorder",
    "chain_length_ecdf",
    "comparison_row",
    "DomainBlockList",
    "DblEntry",
    "analyze_abuse_traffic",
    "AbuseTrafficReport",
    "DBL_CATEGORIES",
    "figure2_rows",
    "figure3_rows",
    "figure7_rows",
    "render_report_summary",
    "sparkline",
    "write_tsv",
]
