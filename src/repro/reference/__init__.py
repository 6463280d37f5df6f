"""Per-record oracles: each production layer's reference, for tests only.

Every pipeline layer has one production path, columnar and batched
(README "Performance" has the table). This package holds the
per-record twin of each, as plain functions over the production
objects, for the parity and differential suites to hold the production
path to. Nothing under ``repro`` imports it;
``tests/test_reference_boundary.py`` keeps it that way.
"""

from repro.reference.codecs import decode_ipfix, decode_v5, decode_v9, ingest
from repro.reference.dns import filter_message, records_from_message
from repro.reference.lanes import (
    add_record,
    correlate_record,
    fill_record,
    format_result,
    is_valid,
)

__all__ = [
    "add_record",
    "correlate_record",
    "decode_ipfix",
    "decode_v5",
    "decode_v9",
    "fill_record",
    "filter_message",
    "format_result",
    "ingest",
    "is_valid",
    "records_from_message",
]
