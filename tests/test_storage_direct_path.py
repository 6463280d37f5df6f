"""The one-hash direct path through storage: routing agreement, spread,
and exclusion.

``StoreBank.put_rows`` / ``lookup`` / ``lookup_many`` hash each key once
and index the shard dicts themselves; ``put`` / ``deep_lookup`` take the
label from the caller and go through ``ConcurrentMap``. These tests pin
that the two agree for every key form that reaches storage, that the
hash spreads real key sets over the whole split x shard grid, and that
the lock-free writer never runs under another worker's eviction scan.
"""

import ipaddress
import sys
import threading
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlowDNSConfig
from repro.core.labeler import ip_label, name_label
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch
from repro.dns.name import decode_name
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.storage.concurrent_map import ConcurrentMap, key_hash, key_hashes
from repro.storage.rotating import StoreBank
from repro.util.rng import derive_rng
from repro.workloads.generator import GeneratorParams, WorkloadGenerator

_SPLITS = 10
_SHARDS = 32

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


def _cell(tier, key: str):
    """(split, shard) holding ``key`` in one tier's maps, or None."""
    for n, cmap in enumerate(tier):
        for idx, shard in enumerate(cmap.shards):
            if key in shard:
                return n, idx
    return None


class TestRoutingAgreement:
    def test_label_is_the_key_hash(self):
        assert ip_label("192.0.2.7") == key_hash("192.0.2.7") == name_label("192.0.2.7")
        assert list(key_hashes(["a.example", "192.0.2.7"])) == [
            key_hash("a.example"), key_hash("192.0.2.7")]

    @given(v4=st.integers(0, 2**32 - 1), v6=st.integers(0, 2**128 - 1))
    def test_address_objects_label_like_their_canonical_text(self, v4, v6):
        for ip in (ipaddress.IPv4Address(v4), ipaddress.IPv6Address(v6)):
            assert ip_label(ip) == ip_label(str(ip))

    @given(keys=st.lists(st.one_of(_V4, _V6, _NAMES), min_size=1, max_size=20, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_batched_and_per_record_paths_share_cells(self, keys):
        """A key written by either path sits in the same (split, shard)
        cell and is found by every probe."""
        per_record = StoreBank(3600.0, num_splits=_SPLITS, shard_count=_SHARDS)
        batched = StoreBank(3600.0, num_splits=_SPLITS, shard_count=_SHARDS)
        for key in keys:
            per_record.put(key_hash(key), key, "v", 60.0, 0.0)
        batched.put_rows(keys, ["v"] * len(keys), [60.0] * len(keys), [0.0] * len(keys))
        found = batched.lookup_many(keys)
        for key in keys:
            h = key_hash(key)
            cell = (h % _SPLITS, h // _SPLITS % _SHARDS)
            assert _cell(per_record._active, key) == cell
            assert _cell(batched._active, key) == cell
            for bank in (per_record, batched):
                assert bank.lookup(key) == "v"
                assert bank.deep_lookup(h, key)[0] == "v"
            assert found[key] == "v"

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
                assert storage.ip_bank.deep_lookup(
                    ip_label(ipaddress.ip_address(ip)), ip)[0] == "owner.example"
            for name in stored:
                assert storage.lookup_cname(name, 2.0) == "alias.example"

    def test_malformed_name_with_escaped_bytes_routes(self):
        name = decode_name(b"\x04\xff\xfebc\x07example\x00", 0)[0]
        assert "\udcff" in name  # undecodable bytes ride as surrogate escapes
        bank = StoreBank(3600.0, num_splits=_SPLITS)
        bank.put_rows([name], ["q.example"], [60.0], [0.0])
        assert bank.lookup(name) == "q.example"
        assert bank.deep_lookup(name_label(name), name)[0] == "q.example"


def _chi_square(counts):
    expected = sum(counts) / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


def _grid(keys):
    """Keys per (split, shard) cell, as the bank routes them."""
    cells = [0] * (_SPLITS * _SHARDS)
    for h in key_hashes(keys):
        cells[(h % _SPLITS) * _SHARDS + h // _SPLITS % _SHARDS] += 1
    return cells


def _generator_keys():
    """Addresses and names as a generated workload presents them: the
    providers' shared CDN pools (both families), and the names of
    Zipf-drawn services with their CNAME chains."""
    gen = WorkloadGenerator(GeneratorParams(seed=5, n_domains=20000, zipf_alpha=0.6,
                                            chain_depth=4, duration=600.0))
    pools = list(gen.hosting._pools_v4.values()) + list(gen.hosting._pools_v6.values())
    ips = list(dict.fromkeys(ip for pool in pools for ip in pool))
    rng = derive_rng(5, "test-spread")
    names = {}
    for ts, service in islice(gen.events(), 20000):
        names.update(dict.fromkeys(gen.hosting.resolve(service, ts, rng).chain))
    return ips, list(names)


class TestSpread:
    #: 320 cells: chi-square has 319 degrees of freedom, mean 319, and
    #: exceeds 450 with probability ~2e-6 for a uniform hash.
    LIMIT = 450.0

    def test_sequential_slash24s(self):
        keys = [f"198.51.{b}.{i}" for b in range(100, 140) for i in range(256)]
        assert _chi_square(_grid(keys)) < self.LIMIT

    def test_generator_cdn_pools_and_zipf_names(self):
        ips, names = _generator_keys()
        assert len(ips) > 5000 and len(names) > 5000
        assert _chi_square(_grid(ips)) < self.LIMIT
        assert _chi_square(_grid(names)) < self.LIMIT

    def test_split_and_shard_are_not_correlated(self):
        """Split and shard come from different digits of the hash. Taking
        both from the low bits (``h % 10``, ``h % 32``) ties their parity
        together and leaves half of every map's shards empty."""
        keys = [f"domain{i}.example.com" for i in range(20000)]
        naive = [0] * (_SPLITS * _SHARDS)
        for h in key_hashes(keys):
            naive[(h % _SPLITS) * _SHARDS + h % _SHARDS] += 1
        assert naive.count(0) == _SPLITS * _SHARDS // 2
        assert min(_grid(keys)) > 0
        bank = StoreBank(3600.0, num_splits=_SPLITS, shard_count=_SHARDS)
        bank.put_rows(keys, keys, [60.0] * len(keys), [0.0] * len(keys))
        for cmap in bank._active:
            assert min(cmap.shard_sizes()) > 0


class TestReplaceContents:
    def test_shard_copy_keeps_insertion_order(self):
        """Rotation copies shard to shard; eviction's FIFO needs the copy
        to keep each shard's insertion order."""
        source = ConcurrentMap(shard_count=4, hash_divisor=3)
        target = ConcurrentMap(shard_count=4, hash_divisor=3)
        target.set("stale", 0)
        keys = [f"key-{i}" for i in range(200, 0, -1)]
        for i, key in enumerate(keys):
            source.set(key, i)
        target.replace_contents(source)
        assert target.get("stale") is None
        assert [list(shard) for shard in target.shards] == [list(s) for s in source.shards]
        assert all(a is not b for a, b in zip(target.shards, source.shards))
        # Oldest first, exactly as the source would have evicted.
        assert target.evict_oldest(40) == source.evict_oldest(40) == 40
        assert target.snapshot() == source.snapshot()

    def test_differently_sharded_maps_are_rehashed(self):
        source = ConcurrentMap(shard_count=4)
        target = ConcurrentMap(shard_count=8, hash_divisor=5)
        for i in range(100):
            source.set(f"key-{i}", i)
        target.replace_contents(source)
        assert target.snapshot() == source.snapshot()
        assert all(target.get(f"key-{i}") == i for i in range(100))


class TestExclusion:
    def test_capped_fill_workers_and_snapshots_do_not_collide(self):
        """Two fill workers at the cap while a third thread snapshots:
        every worker finishes (an eviction scan that met a concurrent
        insert would raise ``dictionary changed size during iteration``)
        and every put is accounted for."""
        cap = 64
        rows = 12000
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for repetition in range(20):
                storage = DnsStorage(FlowDNSConfig(num_split=2, max_entries_per_map=cap))
                failures = []
                stop = threading.Event()

                def fill(worker):
                    try:
                        for start in range(0, rows, 500):
                            batch = DnsBatch()
                            for i in range(start, start + 500):
                                # A worker's own keys, each written twice in a
                                # row under a fresh owner name: every second
                                # put overwrites a live entry, none repeats one.
                                k = (i // 2) % 1100
                                batch.append_row(1.0, f"owner{worker}-{i}.example", RRType.A,
                                                 60, f"10.{worker}.{k >> 8}.{k & 255}")
                            storage.add_many_columns(batch)
                    except Exception as exc:  # noqa: BLE001 - the test's subject
                        failures.append(exc)

                def snapshot():
                    try:
                        while not stop.is_set():
                            for cmap in storage.ip_bank._active:
                                cmap.snapshot()
                            storage.total_entries()
                    except Exception as exc:  # noqa: BLE001
                        failures.append(exc)

                workers = [threading.Thread(target=fill, args=(w,)) for w in range(2)]
                reader = threading.Thread(target=snapshot)
                reader.start()
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=60)
                stop.set()
                reader.join(timeout=60)
                assert not any(t.is_alive() for t in workers + [reader])
                assert failures == [], f"repetition {repetition}: {failures!r}"
                stats = storage.ip_bank.stats
                assert stats.puts == 2 * rows
                assert stats.evictions > 0
                assert stats.overwrites == rows
                # Every put that was not an overwrite made an entry, and
                # every entry is still in a map or was evicted.
                entries = storage.ip_bank.total_entries()
                assert entries <= 2 * cap
                assert stats.evictions + entries == stats.puts - stats.overwrites
        finally:
            sys.setswitchinterval(old_interval)
