"""BGP substrate: radix-trie RIB and the per-AS traffic correlation.

Supports the paper's "Network Provisioning and Planning" use case
(Figure 4): joining FlowDNS's correlated output with BGP origin data to
see which ASes serve which services.
"""

from repro.bgp.asn import DEFAULT_AS_REGISTRY, AsInfo, AsRegistry
from repro.bgp.correlate import ServiceAsSeries, correlate_with_bgp
from repro.bgp.prefix_trie import PrefixTrie
from repro.bgp.rib import Rib, Route

__all__ = [
    "PrefixTrie",
    "Rib",
    "Route",
    "AsInfo",
    "AsRegistry",
    "DEFAULT_AS_REGISTRY",
    "ServiceAsSeries",
    "correlate_with_bgp",
]
