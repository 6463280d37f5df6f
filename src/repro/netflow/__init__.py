"""Netflow substrate: flow records plus v5 / v9 / IPFIX wire codecs.

Section 2 of the paper describes the flow input as Netflow records carrying
``..., srcIP, dstIP, ..., timestamp, packets, bytes``. The paper's Section 3
notes "the system is not bound to NetFlow data and can be adapted to use
other data formats containing IP addresses and timestamps in a
configuration file" — we mirror that by decoding v5, v9 and IPFIX datagrams
into one common :class:`FlowRecord` the correlator consumes. The
``v5``/``v9``/``ipfix`` modules decode; :mod:`repro.netflow.export` writes.
"""

from repro.netflow.records import FlowRecord
from repro.netflow.v5 import V5_HEADER_LEN, V5_RECORD_LEN
from repro.netflow.v9 import TemplateField, TemplateRecord, V9Session
from repro.netflow.ipfix import IpfixSession
from repro.netflow.collector import FlowCollector
from repro.netflow.export import (
    FlowExporter,
    encode_ipfix_data,
    encode_ipfix_template,
    encode_v9_template,
)

__all__ = [
    "FlowRecord",
    "V5_HEADER_LEN",
    "V5_RECORD_LEN",
    "TemplateField",
    "TemplateRecord",
    "V9Session",
    "encode_v9_template",
    "IpfixSession",
    "encode_ipfix_template",
    "encode_ipfix_data",
    "FlowCollector",
    "FlowExporter",
]
