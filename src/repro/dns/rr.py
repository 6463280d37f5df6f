"""DNS resource-record TYPE and CLASS values.

FlowDNS only *uses* A, AAAA and CNAME records, but real resolver traffic
carries the other common types too (NS, MX, TXT, SOA, PTR, SRV), because
the FillUp filter's job is precisely to discard them (Section 3.2 step 2
"go through a filter"). The typed record objects are the test-side
oracle's (``repro.reference``); the collector works on the wire values.
"""

from __future__ import annotations

from enum import IntEnum


class RRType(IntEnum):
    """DNS RR TYPE values (RFC 1035 §3.2.2 and successors)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    OPT = 41
    ANY = 255


class RClass(IntEnum):
    """DNS CLASS values; IN is the only one seen in practice."""

    IN = 1
    CH = 3
    HS = 4
    ANY = 255
