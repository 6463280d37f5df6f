"""A BGP RIB: prefixes with origin (and optional AS-path) information.

The paper correlates FlowDNS output "with their BGP information to find
more details about the origin and destination of the traffic" — source
AS, destination AS, hand-over AS. The RIB here holds per-prefix origin
ASN plus an optional AS path, backed by the radix trie for line-rate
longest-prefix matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.bgp.prefix_trie import PrefixTrie
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class Route:
    """One RIB entry."""

    prefix: str
    origin_asn: int
    as_path: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.as_path and self.as_path[-1] != self.origin_asn:
            raise ConfigError("AS path must end at the origin ASN")

    @property
    def handover_asn(self) -> Optional[int]:
        """The first AS the traffic is handed to/from (path head)."""
        return self.as_path[0] if self.as_path else None


class Rib:
    """Longest-prefix-match routing table of :class:`Route` entries."""

    def __init__(self, routes: Iterable[Route] = ()):
        self._trie: PrefixTrie = PrefixTrie()
        self._routes: List[Route] = []
        for route in routes:
            self.add(route)

    def add(self, route: Route) -> None:
        self._trie.insert(route.prefix, route)
        self._routes.append(route)

    def lookup(self, address) -> Optional[Route]:
        """Best-match route for an address (None = not announced)."""
        return self._trie.lookup(address)

    def origin_asn(self, address) -> Optional[int]:
        route = self.lookup(address)
        return route.origin_asn if route is not None else None

    def __len__(self) -> int:
        return len(self._trie)

    def routes(self) -> List[Route]:
        return list(self._routes)

    @classmethod
    def from_entries(cls, entries: Iterable[Tuple[str, int]], transit_asn: int = 64700) -> "Rib":
        """Build a RIB from (prefix, origin) pairs, e.g. the CDN pools.

        Every route gets a one-hop synthetic path through the transit AS,
        which gives the hand-over-AS analyses something to chew on.
        """
        return cls(
            Route(prefix=prefix, origin_asn=asn, as_path=(transit_asn, asn))
            for prefix, asn in entries
        )
