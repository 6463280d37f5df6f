"""DNS substrate: names, resource records, wire format, validation, TTLs.

FlowDNS consumes DNS *responses* (cache misses forwarded by ISP resolvers).
This subpackage implements everything the correlator and the workload
generators need from the DNS side:

* :mod:`repro.dns.name` — RFC 1035 domain-name encoding/decoding;
* :mod:`repro.dns.validation` — the three RFC 1035 validity rules the
  paper's Section 5 checks (length 255, label 63, LDH characters);
* :mod:`repro.dns.rr` — resource-record TYPE and CLASS values;
* :mod:`repro.dns.wire` — wire layouts and the one writer, :func:`encode_response`;
* :mod:`repro.dns.columnar` — the collector's decode, wire to FillUp columns;
* :mod:`repro.dns.stream` — the lightweight ``DnsRecord`` tuples that flow
  through FlowDNS queues;
* :mod:`repro.dns.ttl` — TTL bucketing/analysis used for Figure 8.
"""

from repro.dns.name import (
    decode_name,
    encode_name,
    normalize_name,
)
from repro.dns.rr import RClass, RRType
from repro.dns.stream import DnsRecord, is_address_type
from repro.dns.validation import (
    DomainViolation,
    ViolationKind,
    check_domain,
    is_valid_domain,
)
from repro.dns.wire import Opcode, encode_response
from repro.dns.tcp import TcpFrameDecoder, frame_message, frame_messages
from repro.dns.ttl import TtlSummary, summarize_ttls

__all__ = [
    "encode_name",
    "decode_name",
    "normalize_name",
    "RRType",
    "RClass",
    "DnsRecord",
    "is_address_type",
    "DomainViolation",
    "ViolationKind",
    "check_domain",
    "is_valid_domain",
    "Opcode",
    "encode_response",
    "TtlSummary",
    "summarize_ttls",
    "TcpFrameDecoder",
    "frame_message",
    "frame_messages",
]
