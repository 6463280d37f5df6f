"""Netflow substrate: flow records plus v5 / v9 / IPFIX wire codecs.

Section 2 of the paper describes the flow input as Netflow records carrying
``..., srcIP, dstIP, ..., timestamp, packets, bytes``. The paper's Section 3
notes "the system is not bound to NetFlow data and can be adapted to use
other data formats containing IP addresses and timestamps in a
configuration file" — we mirror that by decoding v5, v9 and IPFIX datagrams
into one common :class:`FlowRecord` the correlator consumes.
"""

from repro.netflow.records import FlowRecord, FlowDirection
from repro.netflow.v5 import encode_v5, V5_HEADER_LEN, V5_RECORD_LEN
from repro.netflow.v9 import (
    TemplateField,
    TemplateRecord,
    V9Session,
    encode_v9_data,
    encode_v9_template,
)
from repro.netflow.ipfix import IpfixSession, encode_ipfix_data, encode_ipfix_template
from repro.netflow.collector import FlowCollector
from repro.netflow.exporter import FlowExporter
from repro.netflow.udp import send_datagrams

__all__ = [
    "FlowRecord",
    "FlowDirection",
    "encode_v5",
    "V5_HEADER_LEN",
    "V5_RECORD_LEN",
    "TemplateField",
    "TemplateRecord",
    "V9Session",
    "encode_v9_template",
    "encode_v9_data",
    "IpfixSession",
    "encode_ipfix_template",
    "encode_ipfix_data",
    "FlowCollector",
    "FlowExporter",
    "send_datagrams",
]
