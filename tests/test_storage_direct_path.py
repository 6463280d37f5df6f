"""Fill and lookup paths through storage agree on every key form.

``DnsStorage.add_record`` (per record), ``add_many`` (record objects)
and ``add_many_columns`` (``DnsBatch`` columns, ``StoreBank.put_rows``)
must store the same state, and every lookup entry — batched
``lookup_ips``, per-key ``lookup_ip``/``lookup_cname``, the bank's
``deep_lookup`` — must find each key whichever path wrote it, for IPv4,
IPv6 and names carrying undecodable bytes.
"""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlowDNSConfig
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch
from repro.dns.name import decode_name
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.storage.rotating import StoreBank

_V4 = st.integers(0, 2**32 - 1).map(lambda n: str(ipaddress.IPv4Address(n)))
_V6 = st.integers(0, 2**128 - 1).map(lambda n: str(ipaddress.IPv6Address(n)))
#: Names as the decoder hands them over: arbitrary label bytes, decoded
#: with surrogate escapes, normalized.
_LABEL = st.binary(min_size=1, max_size=12)
_NAMES = st.lists(_LABEL, min_size=1, max_size=4).map(
    lambda labels: decode_name(
        b"".join(bytes([len(raw)]) + raw for raw in labels) + b"\x00", 0
    )[0]
)


class TestRoutingAgreement:
    @given(
        ips=st.lists(st.one_of(_V4, _V6), min_size=1, max_size=8, unique=True),
        names=st.lists(_NAMES, min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_object_and_columnar_fills_answer_every_lookup(self, ips, names):
        """add_record, add_many and add_many_columns store the same state,
        and the lookup side finds each key whichever path wrote it."""
        records = [DnsRecord(1.0, "owner.example", RRType.AAAA if ":" in ip else RRType.A,
                             60, ip) for ip in ips]
        records += [DnsRecord(1.0, "alias.example", RRType.CNAME, 600, name)
                    for name in names]
        batch = DnsBatch()
        for r in records:
            batch.append_row(r.ts, r.query, r.rtype, r.ttl, r.answer)
        one_by_one, objects, columns = (DnsStorage(FlowDNSConfig()) for _ in range(3))
        for r in records:
            one_by_one.add_record(r)
        objects.add_many(records)
        columns.add_many_columns(batch)
        # The names as storage holds them (DnsRecord normalizes them).
        stored = [r.answer for r in records if r.is_cname]
        for storage in (one_by_one, objects, columns):
            assert storage.entry_counts() == one_by_one.entry_counts()
            assert storage.lookup_ips(ips, 2.0) == {ip: "owner.example" for ip in ips}
            for ip in ips:
                assert storage.lookup_ip(ip, 2.0) == "owner.example"
                assert storage.ip_bank.deep_lookup(ip)[0] == "owner.example"
            for name in stored:
                assert storage.lookup_cname(name, 2.0) == "alias.example"

    def test_malformed_name_with_escaped_bytes_routes(self):
        name = decode_name(b"\x04\xff\xfebc\x07example\x00", 0)[0]
        assert "\udcff" in name  # undecodable bytes ride as surrogate escapes
        bank = StoreBank(3600.0)
        bank.put_rows([name], ["q.example"], [60.0], [0.0])
        assert bank.lookup(name) == "q.example"
        assert bank.deep_lookup(name)[0] == "q.example"
