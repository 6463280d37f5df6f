"""The address-text contract, and memory bounded by the burst.

Every address the decoders put in a column is ``ip_text`` of its packed
bytes, which must equal ``str(ipaddress.ip_address(raw))`` on the
running Python: IPv4 through ``inet_ntoa``, IPv6 through ``inet_ntop``
with any dotted tail (the IPv4-mapped and IPv4-compatible ranges, which
``ipaddress`` spells differently by version) sent through ``ipaddress``.
Conversion keeps no table: decoding any number of distinct addresses
or DNS names must not grow a module-level dict in
:mod:`repro.util.interning` or in the DNS name decoders.
"""

import ipaddress
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns import columnar, name
from repro.dns.columnar import decode_fill_columns
from repro.netflow.collector import FlowCollector
from repro.netflow.export import PackedV9Exporter
from repro.util import interning
from repro.util.interning import ip_text, ip_texts

_ipv4 = st.binary(min_size=4, max_size=4)

#: Hextets drawn as zero half the time, so zero runs of every length
#: occur, side by side and tied, where ``::`` placement is decided.
_hextet = st.one_of(st.just(0), st.integers(min_value=1, max_value=0xFFFF))
_ipv6 = st.one_of(
    st.lists(_hextet, min_size=8, max_size=8).map(lambda h: struct.pack("!8H", *h)),
    st.tuples(
        st.sampled_from([bytes(10) + b"\xff\xff", bytes(12)]), _ipv4
    ).map(b"".join),
)

PINNED = [
    "::",
    "::1",
    "1::",
    "::ffff:1.2.3.4",
    "::1.2.3.4",
    "::ffff:0:0",
    "1:0:0:2:0:0:3:4",
]


@given(raw=st.one_of(_ipv4, _ipv6))
@settings(max_examples=500, deadline=None)
def test_ip_text_is_ipaddress_str(raw):
    assert ip_text(raw) == str(ipaddress.ip_address(raw))


@pytest.mark.parametrize("spelling", PINNED)
def test_pinned_ipv6_spellings(spelling):
    raw = ipaddress.IPv6Address(spelling).packed
    assert ip_text(raw) == str(ipaddress.IPv6Address(raw))


@pytest.mark.parametrize("length", [0, 3, 5, 8, 15, 17])
def test_other_lengths_raise(length):
    with pytest.raises(ValueError):
        ip_text(bytes(length))


@given(
    pool=st.lists(st.one_of(_ipv4, _ipv6), min_size=1, max_size=8, unique=True),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_ip_texts_is_ip_text_per_element(pool, data):
    """Columns with repeats and both families convert element for
    element, whatever the order."""
    column = data.draw(st.lists(st.sampled_from(pool), max_size=40))
    assert ip_texts(column) == [ip_text(raw) for raw in column]


def _tables():
    return {
        f"{module.__name__}.{attr}": value
        for module in (interning, name, columnar)
        for attr, value in vars(module).items()
        if isinstance(value, dict) and not attr.startswith("__")
    }


def _table_sizes():
    return {key: len(value) for key, value in _tables().items()}


def _clear_tables():
    for table in _tables().values():
        table.clear()


def _dns_response(msg_id, name, addresses):
    """A NOERROR response: one A question, one A answer per address."""
    qname = b"".join(bytes([len(label)]) + label.encode() for label in name.split(".")) + b"\0"
    header = struct.pack("!HHHHHH", msg_id, 0x8180, 1, len(addresses), 0, 0)
    answers = b"".join(struct.pack("!HHHIH", 0xC00C, 1, 1, 60, 4) + raw for raw in addresses)
    return header + qname + struct.pack("!HH", 1, 1) + answers


class TestMemoryBoundedByBurst:
    """No address or name reaches a process-wide table, however many
    distinct addresses and names pass through the decoders."""

    def test_netflow_bursts(self):
        _clear_tables()
        before = _table_sizes()
        distinct = 200_000
        flows = [
            (1000.0 + i / 1000.0, (0x0A000000 + i).to_bytes(4, "big"),
             (0x64400000 + i).to_bytes(4, "big"), 443, 50000, 6, 1, 100)
            for i in range(distinct)
        ]
        datagrams = list(PackedV9Exporter(batch_size=24).export(flows))
        collector = FlowCollector()
        decoded = 0
        for start in range(0, len(datagrams), 512):
            batch = collector.ingest_columns_many(datagrams[start : start + 512])
            decoded += len(batch)
        assert decoded == distinct
        assert batch.src_ip_text[-1] == str(ipaddress.IPv4Address(0x0A000000 + distinct - 1))
        assert _table_sizes() == before

    def test_dns_a_records(self):
        _clear_tables()
        before = _table_sizes()
        distinct, per_message = 50_000, 50
        payloads = [
            _dns_response(m, "svc.example", [
                (0x0A000000 + m * per_message + k).to_bytes(4, "big")
                for k in range(per_message)
            ])
            for m in range(distinct // per_message)
        ]
        batch = decode_fill_columns(payloads, 1000.0)
        assert len(set(batch.rdata_text)) == distinct
        assert set(batch.name) == {"svc.example"}
        assert _table_sizes() == before

    def test_dns_names(self):
        """Names are spelled per batch: 50 K distinct owners leave no
        name in any module-level table."""
        _clear_tables()
        before = _table_sizes()
        distinct = 50_000
        payloads = [
            _dns_response(m, f"host{m}.svc.example", [(0x0A000000 + m).to_bytes(4, "big")])
            for m in range(distinct)
        ]
        seen = set()
        for start in range(0, distinct, 512):
            seen.update(decode_fill_columns(payloads[start : start + 512], 1000.0).name)
        assert len(seen) == distinct
        assert _table_sizes() == before
