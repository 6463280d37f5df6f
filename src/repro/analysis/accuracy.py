"""Accuracy estimation: names-per-IP analysis (Section 4 / Appendix A.7).

FlowDNS keys its map on the IP address, so a second domain observed on
the same IP *overwrites* the first — the one mislabelling mechanism by
design. The paper bounds its impact by measuring how many IPs map to
multiple names within a 300 s window (the TTL of 70 % of records): 88 %
of IPs map to a single name, so results are exact for at least 88 % of
IPs. It also reports the converse (35 % of names map to >1 IP), which by
design does **not** hurt accuracy.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.dns.stream import DnsRecord
from repro.util.stats import Ecdf


@dataclass
class NamesPerIpReport:
    """Distribution of distinct names per IP in an observation window."""

    names_per_ip: Dict[str, int]
    ips_per_name: Dict[str, int]
    window: float

    @property
    def single_name_fraction(self) -> float:
        """Fraction of IPs with exactly one name (the paper's 88 %)."""
        if not self.names_per_ip:
            return 0.0
        singles = sum(1 for n in self.names_per_ip.values() if n == 1)
        return singles / len(self.names_per_ip)

    @property
    def multi_ip_name_fraction(self) -> float:
        """Fraction of names seen with more than one IP (the paper's 35 %)."""
        if not self.ips_per_name:
            return 0.0
        multi = sum(1 for n in self.ips_per_name.values() if n > 1)
        return multi / len(self.ips_per_name)

    def names_per_ip_ecdf(self) -> Ecdf:
        """Figure 9's ECDF."""
        return Ecdf(self.names_per_ip.values())

    @property
    def expected_accuracy_lower_bound(self) -> float:
        """The paper's argument: results are exact for the single-name IPs."""
        return self.single_name_fraction


def names_per_ip(
    records: Iterable[DnsRecord],
    window: float = 300.0,
    t_start: float = None,
) -> NamesPerIpReport:
    """Count distinct query names per answer IP within one window.

    Only address records participate (they are what the IP-NAME map
    holds). ``t_start`` defaults to the first record's timestamp; records
    outside ``[t_start, t_start + window)`` are ignored.
    """
    ip_names: Dict[str, Set[str]] = defaultdict(set)
    name_ips: Dict[str, Set[str]] = defaultdict(set)
    start = t_start
    for rec in records:
        if not rec.is_address:
            continue
        if start is None:
            start = rec.ts
        if rec.ts < start:
            continue
        if rec.ts >= start + window:
            break
        ip_names[rec.answer].add(rec.query)
        name_ips[rec.query].add(rec.answer)
    return NamesPerIpReport(
        names_per_ip={ip: len(names) for ip, names in ip_names.items()},
        ips_per_name={name: len(ips) for name, ips in name_ips.items()},
        window=window,
    )
