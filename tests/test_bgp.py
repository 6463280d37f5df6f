"""Tests for the BGP substrate: trie, RIB, AS registry, correlation."""

import pytest

from repro.bgp.asn import AsInfo, AsRegistry
from repro.bgp.correlate import ServiceAsSeries, correlate_with_bgp
from repro.bgp.prefix_trie import PrefixTrie
from repro.bgp.rib import Rib, Route
from repro.core.lookup import CorrelationResult
from repro.netflow.records import FlowRecord
from repro.util.errors import ConfigError


class TestPrefixTrie:
    def test_exact_match(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "ten")
        assert trie.lookup("10.1.2.3") == "ten"

    def test_longest_prefix_wins(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "short")
        trie.insert("10.1.0.0/16", "long")
        assert trie.lookup("10.1.2.3") == "long"
        assert trie.lookup("10.2.2.3") == "short"

    def test_no_match(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "x")
        assert trie.lookup("192.168.1.1") is None

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert("0.0.0.0/0", "default")
        trie.insert("10.0.0.0/8", "ten")
        assert trie.lookup("8.8.8.8") == "default"
        assert trie.lookup("10.0.0.1") == "ten"

    def test_ipv6(self):
        trie = PrefixTrie()
        trie.insert("2001:db8::/32", "doc")
        trie.insert("2001:db8:1::/48", "sub")
        assert trie.lookup("2001:db8:1::5") == "sub"
        assert trie.lookup("2001:db8:2::5") == "doc"

    def test_v4_v6_separate(self):
        trie = PrefixTrie()
        trie.insert("0.0.0.0/0", "v4")
        assert trie.lookup("::1") is None

    def test_lookup_with_prefix_length(self):
        trie = PrefixTrie()
        trie.insert("10.1.0.0/16", "x")
        assert trie.lookup_with_prefix("10.1.0.1") == (16, "x")

    def test_replace_value(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "a")
        trie.insert("10.0.0.0/8", "b")
        assert trie.lookup("10.0.0.1") == "b"
        assert len(trie) == 1

    def test_remove(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "a")
        assert trie.remove("10.0.0.0/8") is True
        assert trie.lookup("10.0.0.1") is None
        assert trie.remove("10.0.0.0/8") is False
        assert len(trie) == 0

    def test_host_routes(self):
        trie = PrefixTrie()
        trie.insert("192.0.2.7/32", "host")
        assert trie.lookup("192.0.2.7") == "host"
        assert trie.lookup("192.0.2.8") is None

    def test_items_round_trip(self):
        trie = PrefixTrie()
        prefixes = {"10.0.0.0/8": 1, "192.168.0.0/16": 2, "2001:db8::/32": 3}
        for prefix, value in prefixes.items():
            trie.insert(prefix, value)
        listed = dict(trie.items())
        assert listed == prefixes

    def test_lookup_many_matches_lookup(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "ten")
        trie.insert("10.1.0.0/16", "long")
        trie.insert("2001:db8::/32", "doc")
        addresses = ["10.1.2.3", "10.2.2.3", "8.8.8.8", "2001:db8::1",
                     "10.1.2.3", "8.8.8.8"]  # repeats exercise the memo
        assert trie.lookup_many(addresses) == [trie.lookup(a) for a in addresses]

    def test_lookup_many_memo_invalidated_by_mutation(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "ten")
        assert trie.lookup_many(["10.1.2.3"]) == ["ten"]
        trie.insert("10.1.0.0/16", "long")  # must not serve the stale memo
        assert trie.lookup_many(["10.1.2.3"]) == ["long"]
        trie.remove("10.1.0.0/16")
        assert trie.lookup_many(["10.1.2.3"]) == ["ten"]

    def test_lookup_many_memoises_misses(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "ten")
        assert trie.lookup_many(["192.0.2.1", "192.0.2.1"]) == [None, None]


class TestRib:
    def test_origin_lookup(self):
        rib = Rib([Route("198.51.100.0/24", 64501)])
        assert rib.origin_asn("198.51.100.10") == 64501
        assert rib.origin_asn("8.8.8.8") is None

    def test_as_path_must_end_at_origin(self):
        with pytest.raises(ConfigError):
            Route("10.0.0.0/8", 64501, as_path=(64700, 64999))

    def test_handover(self):
        route = Route("10.0.0.0/8", 64501, as_path=(64700, 64501))
        assert route.handover_asn == 64700

    def test_from_entries(self):
        rib = Rib.from_entries([("10.0.0.0/8", 64501), ("192.0.2.0/24", 64511)])
        assert len(rib) == 2
        assert rib.lookup("192.0.2.5").as_path[0] == 64700


class TestAsRegistry:
    def test_defaults_loaded(self):
        registry = AsRegistry()
        assert 64501 in registry
        assert "StreamCDN-One" == registry.get(64501).name

    def test_unknown_graceful(self):
        registry = AsRegistry()
        assert registry.name_of(65123) == "AS65123"

    def test_add(self):
        registry = AsRegistry()
        registry.add(AsInfo(65000, "TestNet", "cloud"))
        assert registry.get(65000).kind == "cloud"

    def test_invalid_asn(self):
        with pytest.raises(ValueError):
            AsInfo(0, "bad")


def _result(src_ip, service, ts=0.0, bytes_=100):
    flow = FlowRecord(ts=ts, src_ip=src_ip, dst_ip="100.64.0.1", bytes_=bytes_)
    chain = ("edge", service) if service else ()
    return CorrelationResult(flow=flow, chain=chain, ts=ts)


class TestCorrelateWithBgp:
    def _rib(self):
        return Rib([
            Route("198.51.100.0/24", 64501),
            Route("192.0.2.0/25", 64511),
            Route("192.0.2.128/25", 64512),
        ])

    def test_bytes_attributed_to_origin_as(self):
        results = [
            _result("198.51.100.1", "s1.tv", ts=100.0, bytes_=500),
            _result("198.51.100.2", "s1.tv", ts=200.0, bytes_=300),
        ]
        series = correlate_with_bgp(results, self._rib(), ["s1.tv"])
        assert series["s1.tv"].total_by_asn() == {64501: 800}

    def test_two_as_service(self):
        results = [
            _result("192.0.2.1", "s2.tv", bytes_=600),
            _result("192.0.2.200", "s2.tv", bytes_=400),
        ]
        series = correlate_with_bgp(results, self._rib(), ["s2.tv"])
        assert set(series["s2.tv"].total_by_asn()) == {64511, 64512}

    def test_unrouted_counted(self):
        results = [_result("203.0.113.99", "s1.tv", bytes_=50)]
        series = correlate_with_bgp(results, self._rib(), ["s1.tv"])
        assert series["s1.tv"].unrouted_bytes == 50

    def test_unmatched_flows_ignored(self):
        results = [_result("198.51.100.1", None)]
        series = correlate_with_bgp(results, self._rib(), ["s1.tv"])
        assert series["s1.tv"].total_by_asn() == {}

    def test_hour_buckets(self):
        results = [
            _result("198.51.100.1", "s1.tv", ts=100.0, bytes_=10),
            _result("198.51.100.1", "s1.tv", ts=3700.0, bytes_=20),
        ]
        series = correlate_with_bgp(results, self._rib(), ["s1.tv"], bucket_seconds=3600.0)
        assert dict(series["s1.tv"].buckets) == {(64501, 0): 10, (64501, 1): 20}

    def test_dominant_asns(self):
        series = ServiceAsSeries(service="x", bucket_seconds=3600.0)
        series.add(1, 0, 960)
        series.add(2, 0, 30)
        series.add(3, 0, 10)
        assert series.dominant_asns(coverage=0.95) == [1]
        assert series.dominant_asns(coverage=0.99) == [1, 2]

    def test_custom_matcher(self):
        results = [_result("198.51.100.1", "api.s1.tv", bytes_=77)]
        series = correlate_with_bgp(
            results, self._rib(), ["s1.tv"],
            service_matcher=lambda resolved, target: resolved.endswith(target),
        )
        assert series["s1.tv"].total_by_asn() == {64501: 77}
