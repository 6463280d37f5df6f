"""Invalid (RFC 1035-violating) domain-name traffic analysis (Section 5).

The paper's findings this module reproduces:

* 666k of 39M daily names violate at least one rule (≈1.7 %);
* the underscore is the offending character in 87 % of them;
* malformed + spam domains carry ≈0.5 % of daily bytes;
* 2.7 % of clients receiving malformed-domain traffic answer back, to
  23.6 % of those domains, accounting for 1.9 % of packets — mostly on
  non-web ports (OpenVPN, Kerberos).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.lookup import CorrelationResult
from repro.dns.validation import check_domain, offending_characters

NON_WEB_PORTS = {1194: "openvpn", 88: "kerberos"}


@dataclass
class InvalidDomainReport:
    """Aggregates for the invalid-domain analysis."""

    names_seen: int = 0
    invalid_names: int = 0
    bytes_total: int = 0
    bytes_invalid: int = 0
    #: invalid names whose offending characters include '_'.
    underscore_names: int = 0
    char_counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_invalid_domain: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: clients that received malformed-domain traffic / replied to it
    receiving_clients: Set[str] = field(default_factory=set)
    replying_clients: Set[str] = field(default_factory=set)
    replied_domains: Set[str] = field(default_factory=set)
    packets_total: int = 0
    packets_bidirectional: int = 0
    reply_ports: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    @property
    def invalid_name_fraction(self) -> float:
        return self.invalid_names / self.names_seen if self.names_seen else 0.0

    @property
    def invalid_byte_share(self) -> float:
        return self.bytes_invalid / self.bytes_total if self.bytes_total else 0.0

    @property
    def underscore_share(self) -> float:
        """Fraction of invalid names whose offending char set includes '_'
        (the paper's "found in 87% of the malformatted domains")."""
        return self.underscore_names / self.invalid_names if self.invalid_names else 0.0

    @property
    def replying_client_fraction(self) -> float:
        if not self.receiving_clients:
            return 0.0
        return len(self.replying_clients) / len(self.receiving_clients)

    @property
    def replied_domain_fraction(self) -> float:
        if not self.replied_domains:
            return 0.0
        domains = {d for d in self.bytes_by_invalid_domain}
        return len(self.replied_domains) / len(domains) if domains else 0.0

    def cumulative_curve(self) -> List[Tuple[int, float]]:
        """Figure 5's mal-formatted panel: (#domains, cum. byte share)."""
        total = sum(self.bytes_by_invalid_domain.values())
        out: List[Tuple[int, float]] = []
        acc = 0
        ranked = sorted(
            self.bytes_by_invalid_domain.items(), key=lambda kv: kv[1], reverse=True
        )
        for i, (_name, nbytes) in enumerate(ranked, start=1):
            acc += nbytes
            out.append((i, acc / total if total else 0.0))
        return out


def analyze_invalid_domains(results: Iterable[CorrelationResult]) -> InvalidDomainReport:
    """Scan correlated output for RFC 1035 violations and reply traffic.

    A result whose resolved service name violates any of the three rules
    counts as malformed-domain traffic. Reply traffic is recognised as
    flows *from* a client that previously received malformed traffic
    back *to* the malformed source.
    """
    report = InvalidDomainReport()
    seen_names: Set[str] = set()
    invalid_names: Set[str] = set()
    # (client, server) pairs of malformed-domain downloads, for reply
    # matching; server ip → domain for attribution.
    malformed_pairs: Set[Tuple[str, str]] = set()
    server_domain: Dict[str, str] = {}

    for result in results:
        flow = result.flow
        report.bytes_total += flow.bytes_
        report.packets_total += flow.packets
        # Reply direction: src is a client that earlier received
        # malformed-domain traffic from this dst.
        if (str(flow.src_ip), str(flow.dst_ip)) in malformed_pairs:
            report.replying_clients.add(str(flow.src_ip))
            domain = server_domain.get(str(flow.dst_ip))
            if domain is not None:
                report.replied_domains.add(domain)
            report.packets_bidirectional += flow.packets
            port_name = NON_WEB_PORTS.get(flow.dst_port, f"port-{flow.dst_port}")
            report.reply_ports[port_name] += 1
            continue
        if not result.matched:
            continue
        name = result.service
        if name not in seen_names:
            seen_names.add(name)
            report.names_seen += 1
            violations = check_domain(name)
            if violations:
                invalid_names.add(name)
                report.invalid_names += 1
                chars = offending_characters(name)
                if "_" in chars:
                    report.underscore_names += 1
                for ch in chars:
                    report.char_counts[ch] += 1
        if name in invalid_names:
            report.bytes_invalid += flow.bytes_
            report.bytes_by_invalid_domain[name] += flow.bytes_
            report.receiving_clients.add(str(flow.dst_ip))
            malformed_pairs.add((str(flow.dst_ip), str(flow.src_ip)))
            server_domain[str(flow.src_ip)] = name
    return report
