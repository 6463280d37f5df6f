"""Tests for the batched hot path: storage batch ops and the processor-level
``process_columns``/``correlate_batch_columns`` — including equivalence
against the per-record path."""

from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.flowdns import FlowDNS
from repro.core.lookup import LookUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowBatch, FlowDirection, FlowRecord
from repro.reference import correlate_record, fill_record
from repro.storage.rotating import StoreBank


def _dns_records(n=400, services=40):
    records = [
        DnsRecord(float(i % 50), f"svc{i % services}.example", RRType.A, 300,
                  f"10.0.{(i % services) // 25}.{(i % services) % 25 + 1}")
        for i in range(n)
    ]
    records.append(DnsRecord(1.0, "alias.example", RRType.CNAME, 600, "svc0.example"))
    records.append(DnsRecord(1.0, "svc0.example", RRType.A, 60, "10.9.9.9"))
    return records

def _flows(n=1000, services=50):
    return [
        FlowRecord(ts=float(i % 50),
                   src_ip=f"10.0.{(i % services) // 25}.{(i % services) % 25 + 1}",
                   dst_ip="100.64.0.1", bytes_=100 + i % 7)
        for i in range(n)
    ]


def _columns(entries):
    """``(key, value, ttl, ts)`` rows as put_rows' four parallel columns."""
    return [list(column) for column in zip(*entries)]


class TestStoreBankBatch:
    def test_put_rows_matches_per_record_puts(self):
        single = StoreBank(clear_up_interval=3600.0)
        batched = StoreBank(clear_up_interval=3600.0)
        entries = [(f"key{i % 30}", f"val{i % 7}", float(i % 5000), float(i))
                   for i in range(200)]
        for key, value, ttl, ts in entries:
            single.put(key, value, ttl, ts)
        batched.put_rows(*_columns(entries))
        assert list(single.active.items()) == list(batched.active.items())
        assert list(single.long.items()) == list(batched.long.items())
        assert single.stats.puts == batched.stats.puts
        assert single.stats.puts_long == batched.stats.puts_long
        assert single.stats.overwrites == batched.stats.overwrites

    def test_lookup_many_matches_deep_lookup(self):
        bank = StoreBank(clear_up_interval=3600.0)
        bank.put_rows(*_columns([(f"key{i}", f"val{i}", 60.0, 0.0) for i in range(50)]))
        keys = [f"key{i}" for i in range(70)]
        batch = bank.lookup_many(keys)
        for key in keys:
            value, _tier = bank.deep_lookup(key)
            assert batch.get(key) == value == bank.lookup(key)

    def test_lookup_many_walks_all_tiers(self):
        bank = StoreBank(clear_up_interval=100.0)
        bank.put("long-key", "long-val", 5000.0, 0.0)            # → Long
        bank.put("rotated", "old-val", 10.0, 0.0)                # → Active
        bank.put_rows(["fresh"], ["new-val"], [10.0], [200.0])   # rotates
        found = bank.lookup_many(["long-key", "rotated", "fresh", "absent"])
        assert found == {"long-key": "long-val", "rotated": "old-val",
                         "fresh": "new-val"}
        assert bank.stats.hits == {"active": 1, "inactive": 1, "long": 1}
        assert bank.stats.misses == 1

    def test_put_rows_rotates_at_each_interval_boundary(self):
        """A batch spanning several clear-up intervals must rotate exactly
        where per-record puts would — not once per batch."""
        single = StoreBank(clear_up_interval=100.0)
        batched = StoreBank(clear_up_interval=100.0)
        entries = [(f"k{i % 10}", f"v{i % 3}", 10.0, float(i * 40))
                   for i in range(20)]
        for key, value, ttl, ts in entries:
            single.put(key, value, ttl, ts)
        batched.put_rows(*_columns(entries))
        assert single.stats.rotations == batched.stats.rotations
        assert batched.stats.rotations > 1
        assert single.entry_counts() == batched.entry_counts()
        assert single.stats.entries_rotated == batched.stats.entries_rotated

    def test_put_rows_empty_is_noop(self):
        bank = StoreBank(clear_up_interval=3600.0)
        bank.put_rows([], [], [], [])
        assert bank.stats.puts == 0


class TestBatchEquivalence:
    """The batched path must produce the per-record path's results."""

    def _run_per_record(self, dns, flows, config):
        storage = DnsStorage(config)
        fillup = FillUpProcessor(storage)
        for record in dns:
            fill_record(fillup, record)
        lookup = LookUpProcessor(storage, config)
        results = [correlate_record(lookup, flow) for flow in flows]
        return storage, fillup, lookup, results

    def _run_batched(self, dns, flows, config, batch_size=128):
        storage = DnsStorage(config)
        fillup = FillUpProcessor(storage)
        for i in range(0, len(dns), batch_size):
            fillup.process_columns(DnsBatch.from_records(dns[i:i + batch_size]))
        lookup = LookUpProcessor(storage, config)
        results = []
        for i in range(0, len(flows), batch_size):
            batch = FlowBatch.from_records(flows[i:i + batch_size])
            results.extend(lookup.correlate_batch_columns(batch).results())
        return storage, fillup, lookup, results

    def test_results_and_counters_match(self):
        dns, flows = _dns_records(), _flows()
        config = FlowDNSConfig()
        s1, f1, l1, r1 = self._run_per_record(dns, flows, config)
        s2, f2, l2, r2 = self._run_batched(dns, flows, config)
        assert [r.chain for r in r1] == [r.chain for r in r2]
        assert f1.stats == f2.stats
        assert l1.stats.matched == l2.stats.matched
        assert l1.stats.unmatched == l2.stats.unmatched
        assert l1.stats.bytes_in == l2.stats.bytes_in
        assert l1.stats.bytes_matched == l2.stats.bytes_matched
        assert l1.stats.chain_lengths == l2.stats.chain_lengths
        assert s1.total_entries() == s2.total_entries()
        assert s1.overwrites() == s2.overwrites()

    def test_direction_both_fallback(self):
        dns = [DnsRecord(1.0, "dst.example", RRType.A, 300, "10.7.7.7")]
        flows = [
            # src misses, dst hits → fallback path
            FlowRecord(ts=2.0, src_ip="172.16.0.1", dst_ip="10.7.7.7", bytes_=50),
            # both miss
            FlowRecord(ts=2.0, src_ip="172.16.0.2", dst_ip="172.16.0.3", bytes_=10),
        ]
        config = FlowDNSConfig(direction=FlowDirection.BOTH)
        _, _, l1, r1 = self._run_per_record(dns, flows, config)
        _, _, l2, r2 = self._run_batched(dns, flows, config)
        assert [r.chain for r in r1] == [r.chain for r in r2]
        assert r2[0].service == "dst.example"
        assert l1.stats.matched == l2.stats.matched == 1

    def test_empty_and_partial_batches(self):
        config = FlowDNSConfig()
        storage = DnsStorage(config)
        fillup = FillUpProcessor(storage)
        assert fillup.process_columns(DnsBatch.from_records([])) == 0
        assert fillup.stats.records_in == 0
        # Non-storable record types are counted but skipped.
        mixed = [
            DnsRecord(1.0, "a.example", RRType.A, 60, "10.1.1.1"),
            DnsRecord(1.0, "ns.example", RRType.NS, 60, "ns1.example"),
        ]
        assert fillup.process_columns(DnsBatch.from_records(mixed)) == 1
        assert fillup.stats.records_skipped == 1
        lookup = LookUpProcessor(storage, config)
        assert lookup.correlate_batch_columns(FlowBatch()).results() == []
        assert lookup.stats.flows_in == 0

    def test_exact_ttl_falls_back_to_per_record(self):
        config = FlowDNSConfig(exact_ttl=True)
        storage = DnsStorage(config)
        FillUpProcessor(storage).process_columns(DnsBatch.from_records(
            [DnsRecord(0.0, "a.example", RRType.A, 10, "10.1.1.1")]
        ))
        lookup = LookUpProcessor(storage, config)
        flows = [
            FlowRecord(ts=5.0, src_ip="10.1.1.1", dst_ip="100.64.0.1", bytes_=10),
            FlowRecord(ts=50.0, src_ip="10.1.1.1", dst_ip="100.64.0.1", bytes_=10),
        ]
        results = lookup.correlate_batch_columns(FlowBatch.from_records(flows)).results()
        # Per-flow expiry clocks: the 5s flow matches, the 50s flow is past
        # the 10s TTL — exactly what per-record processing yields.
        assert results[0].matched and not results[1].matched


class TestFacadeBatchPath:
    def test_add_dns_many_and_correlate_many(self):
        fd = FlowDNS()
        dns, flows = _dns_records(), _flows(services=40)
        stored = fd.add_dns_many(dns)
        assert stored == len(dns)
        results = fd.correlate_many(flows)
        assert len(results) == len(flows)
        assert all(r.matched for r in results)
        assert fd.lookup_stats.flows_in == len(flows)

    def test_service_of_uses_probe_not_flow_stats(self):
        fd = FlowDNS()
        fd.add_dns(DnsRecord(1.0, "svc.example", RRType.A, 300, "10.1.1.1"))
        probe = fd._probe
        assert fd.service_of("10.1.1.1", now=2.0) == "svc.example"
        assert fd.service_of("10.1.1.1", now=3.0) == "svc.example"
        # Same probe object reused; flow statistics untouched.
        assert fd._probe is probe
        assert fd.lookup_stats.flows_in == 0
        assert fd.lookup_stats.matched == 0

    def test_service_of_unknown_ip(self):
        fd = FlowDNS()
        assert fd.service_of("192.0.2.1", now=1.0) is None
