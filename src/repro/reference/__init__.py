"""Per-record oracles: each production layer's reference, for tests only.

Every pipeline layer has one production path, columnar and batched
(README "Performance" has the table). This package holds the
per-record twin of each, as plain functions over the production
objects, for the parity and differential suites to hold the production
path to, and the writers' oracles: the DNS object codec
(:mod:`repro.reference.wire`), the v5 writer and the per-field v9
writer and exporter. Nothing under ``repro`` imports it;
``tests/test_reference_boundary.py`` keeps it that way.
"""

from repro.reference.codecs import (
    decode_ipfix,
    decode_v5,
    decode_v9,
    encode_v5,
    encode_v9_data,
    export_v5,
    export_v9,
    ingest,
)
from repro.reference.dns import filter_message, records_from_message
from repro.reference.lanes import (
    add_record,
    correlate_record,
    fill_record,
    format_result,
    is_valid,
)
from repro.reference.wire import (
    DnsMessage,
    Header,
    Question,
    Rcode,
    ResourceRecord,
    a_record,
    aaaa_record,
    cname_record,
    decode_message,
    decode_rdata,
    encode_message,
)

__all__ = [
    "DnsMessage",
    "Header",
    "Question",
    "Rcode",
    "ResourceRecord",
    "a_record",
    "aaaa_record",
    "add_record",
    "cname_record",
    "correlate_record",
    "decode_ipfix",
    "decode_message",
    "decode_rdata",
    "decode_v5",
    "decode_v9",
    "encode_message",
    "encode_v5",
    "encode_v9_data",
    "export_v5",
    "export_v9",
    "fill_record",
    "filter_message",
    "format_result",
    "ingest",
    "is_valid",
    "records_from_message",
]
