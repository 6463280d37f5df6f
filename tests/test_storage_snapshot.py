"""Tests for storage snapshot/restore."""

import io
import json
import os
import shutil
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlowDNSConfig
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.storage.snapshot import (
    dump_storage,
    load_snapshot,
    load_storage,
    save_snapshot,
    snapshot_document,
    snapshot_saved_at,
    write_snapshot,
)
from repro.util.errors import ParseError


def _add(storage, *records):
    """Records through the storage's one fill entry."""
    storage.add_many_columns(DnsBatch.from_records(records))


def _filled_storage():
    storage = DnsStorage(FlowDNSConfig())
    records = [
        DnsRecord(0.0, "a.example", RRType.A, 60, "10.1.1.1"),
        DnsRecord(0.0, "long.example", RRType.A, 86400, "10.2.2.2"),
        DnsRecord(0.0, "www.svc.com", RRType.CNAME, 600, "edge.cdn.net"),
    ]
    for rec in records:
        _add(storage, rec)
    # Force one rotation so the inactive tier is populated too.
    storage.ip_bank.force_clear_up()
    _add(storage, DnsRecord(10.0, "b.example", RRType.A, 60, "10.3.3.3"))
    return storage


class TestRoundTrip:
    def test_dump_and_restore_preserves_entries(self):
        original = _filled_storage()
        buffer = io.StringIO()
        written = dump_storage(original, buffer)
        assert written == original.total_entries()

        restored = DnsStorage(FlowDNSConfig())
        buffer.seek(0)
        loaded = load_storage(restored, buffer)
        assert loaded == original.total_entries()
        assert restored.entry_counts() == original.entry_counts()

    def test_restored_lookups_work_across_tiers(self):
        original = _filled_storage()
        buffer = io.StringIO()
        dump_storage(original, buffer)
        restored = DnsStorage(FlowDNSConfig())
        buffer.seek(0)
        load_storage(restored, buffer)
        # Active tier entry.
        assert restored.lookup_ip("10.3.3.3", now=20.0) == "b.example"
        # Inactive tier entry (rotated before dump).
        assert restored.lookup_ip("10.1.1.1", now=20.0) == "a.example"
        # Long tier entry.
        assert restored.lookup_ip("10.2.2.2", now=20.0) == "long.example"
        # CNAME bank.
        assert restored.lookup_cname("edge.cdn.net", now=20.0) == "www.svc.com"

    def test_clear_up_clock_preserved(self):
        original = DnsStorage(FlowDNSConfig())
        _add(original, DnsRecord(1000.0, "a.example", RRType.A, 60, "10.1.1.1"))
        buffer = io.StringIO()
        dump_storage(original, buffer)
        restored = DnsStorage(FlowDNSConfig())
        buffer.seek(0)
        load_storage(restored, buffer)
        # A put within the same interval must NOT trigger a rotation.
        _add(restored, DnsRecord(2000.0, "b.example", RRType.A, 60, "10.2.2.2"))
        assert restored.ip_bank.stats.rotations == 0
        # One past the interval must.
        _add(restored, DnsRecord(5000.0, "c.example", RRType.A, 60, "10.3.3.3"))
        assert restored.ip_bank.stats.rotations == 1


class TestErrors:
    def test_exact_ttl_storage_rejected(self):
        storage = DnsStorage(FlowDNSConfig(exact_ttl=True))
        with pytest.raises(ParseError):
            dump_storage(storage, io.StringIO())
        with pytest.raises(ParseError):
            load_storage(storage, io.StringIO("{}"))

    def test_bad_json_rejected(self):
        storage = DnsStorage(FlowDNSConfig())
        with pytest.raises(ParseError):
            load_storage(storage, io.StringIO("{broken"))

    def test_wrong_version_rejected(self):
        storage = DnsStorage(FlowDNSConfig())
        with pytest.raises(ParseError):
            load_storage(storage, io.StringIO('{"version": 99}'))

    def test_cname_clear_up_interval_mismatch_rejected(self):
        original = _filled_storage()
        buffer = io.StringIO()
        dump_storage(original, buffer)
        buffer.seek(0)
        incompatible = DnsStorage(FlowDNSConfig(c_clear_up_interval=123.0))
        with pytest.raises(ParseError, match="name_cname"):
            load_storage(incompatible, buffer)

    def test_clear_up_interval_mismatch_rejected(self):
        original = _filled_storage()
        buffer = io.StringIO()
        dump_storage(original, buffer)
        buffer.seek(0)
        incompatible = DnsStorage(FlowDNSConfig(a_clear_up_interval=123.0))
        with pytest.raises(ParseError, match="clear_up_interval"):
            load_storage(incompatible, buffer)


class TestVersion1:
    """Version 1 documents held one object per label split of each tier;
    they restore by merging each tier's splits in order."""

    SPLITS = 10

    def _v1_document(self, storage):
        """``storage``'s state as a version 1 document over 10 splits."""

        def bank_state(bank):
            tiers = {}
            for name in ("active", "inactive", "long"):
                splits = [{} for _ in range(self.SPLITS)]
                for i, (key, value) in enumerate(getattr(bank, name).items()):
                    splits[i % self.SPLITS][key] = value
                tiers[name] = splits
            return {
                "clear_up_interval": bank.clear_up_interval,
                "num_splits": self.SPLITS,
                "last_clear_ts": bank._last_clear_ts,
                "tiers": tiers,
            }

        return {
            "version": 1,
            "saved_at": 1.0,
            "ip_name": bank_state(storage.ip_bank),
            "name_cname": bank_state(storage.cname_bank),
        }

    def test_split_objects_merge_into_one_tier(self):
        original = DnsStorage(FlowDNSConfig())
        for i in range(60):
            _add(original, DnsRecord(0.0, f"svc{i}.example", RRType.A,
                                 86400 if i % 4 == 0 else 60, f"10.7.0.{i}"))
            _add(original, DnsRecord(0.0, f"www{i}.example", RRType.CNAME,
                                 600, f"edge{i}.cdn.net"))
        original.ip_bank.force_clear_up()
        _add(original, DnsRecord(10.0, "late.example", RRType.A, 60, "10.7.1.1"))
        document = self._v1_document(original)
        assert all(document["ip_name"]["tiers"]["inactive"])  # every split holds entries

        restored = DnsStorage(FlowDNSConfig())
        assert load_storage(restored, io.StringIO(json.dumps(document))) == 121
        assert restored.entry_counts() == original.entry_counts()
        assert restored.ip_bank._last_clear_ts == original.ip_bank._last_clear_ts
        for i in range(60):
            for storage in (original, restored):
                assert storage.lookup_ip(f"10.7.0.{i}", now=20.0) == f"svc{i}.example"
                assert storage.lookup_cname(f"edge{i}.cdn.net", now=20.0) == f"www{i}.example"
        assert restored.lookup_ip("10.7.1.1", now=20.0) == "late.example"

    def test_v1_tier_that_is_not_a_list_rejected(self):
        target = _filled_storage()
        before_counts = target.entry_counts()
        document = self._v1_document(_filled_storage())
        document["name_cname"]["tiers"]["long"] = {}
        with pytest.raises(ParseError, match="list of splits"):
            load_storage(target, io.StringIO(json.dumps(document)))
        assert target.entry_counts() == before_counts


class TestAllOrNothing:
    """A failed restore must leave the target storage exactly as it was.

    The half-wipe failure mode this pins down: restore validates bank 1,
    wipes it, then discovers bank 2 is malformed — leaving a storage
    that is neither the old state nor the snapshot. Validation must
    complete over the *whole* document before any map is touched.
    """

    @staticmethod
    def _mangle(document_text: str) -> str:
        # Corrupt the SECOND bank only: a restore that mutates as it
        # validates would wipe the first bank before noticing.
        document = json.loads(document_text)
        document["name_cname"]["tiers"]["active"] = "not-an-object"
        return json.dumps(document)

    def test_failed_restore_leaves_target_untouched(self):
        target = _filled_storage()
        before_counts = target.entry_counts()
        donor = _filled_storage()
        buffer = io.StringIO()
        dump_storage(donor, buffer)
        with pytest.raises(ParseError):
            load_storage(target, io.StringIO(self._mangle(buffer.getvalue())))
        assert target.entry_counts() == before_counts
        # Lookups still resolve from the pre-restore state.
        assert target.lookup_ip("10.3.3.3", now=20.0) == "b.example"
        assert target.lookup_cname("edge.cdn.net", now=20.0) == "www.svc.com"

    def test_truncated_snapshot_leaves_target_untouched(self):
        target = _filled_storage()
        before_counts = target.entry_counts()
        buffer = io.StringIO()
        dump_storage(_filled_storage(), buffer)
        truncated = buffer.getvalue()[: len(buffer.getvalue()) // 2]
        with pytest.raises(ParseError):
            load_storage(target, io.StringIO(truncated))
        assert target.entry_counts() == before_counts

    def test_missing_bank_rejected_before_mutation(self):
        target = _filled_storage()
        before_counts = target.entry_counts()
        buffer = io.StringIO()
        dump_storage(_filled_storage(), buffer)
        document = json.loads(buffer.getvalue())
        del document["name_cname"]
        with pytest.raises(ParseError, match="name_cname"):
            load_storage(target, io.StringIO(json.dumps(document)))
        assert target.entry_counts() == before_counts


class TestSnapshotFiles:
    """The crash-safe path-level pair: save_snapshot / load_snapshot."""

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "state.json")
        original = _filled_storage()
        written = save_snapshot(original, path)
        assert written == original.total_entries()
        assert snapshot_saved_at(path) > 0.0
        restored = DnsStorage(FlowDNSConfig())
        assert load_snapshot(restored, path) == original.total_entries()
        assert restored.entry_counts() == original.entry_counts()
        assert restored.lookup_ip("10.3.3.3", now=20.0) == "b.example"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "state.json")
        save_snapshot(_filled_storage(), path)
        assert sorted(os.listdir(tmp_path)) == ["state.json"]

    def test_failed_write_preserves_previous_snapshot(self, tmp_path):
        path = str(tmp_path / "state.json")
        save_snapshot(_filled_storage(), path)
        before = open(path, encoding="utf-8").read()
        # An exact-TTL storage cannot be dumped: the write fails mid-way,
        # and the atomic-rename contract keeps the old file intact.
        with pytest.raises(ParseError):
            save_snapshot(DnsStorage(FlowDNSConfig(exact_ttl=True)), path)
        assert open(path, encoding="utf-8").read() == before
        assert sorted(os.listdir(tmp_path)) == ["state.json"]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(_filled_storage(), str(tmp_path / "absent.json"))

    def test_periodic_snapshots_during_a_fill_all_load(self, tmp_path, monkeypatch):
        """Snapshots taken while the fill lane writes and rotates the
        store: every file written loads cleanly, and the run warns of
        nothing."""
        from repro.core import async_engine
        from repro.core.async_engine import AsyncEngine
        from repro.core.config import EngineConfig

        path = str(tmp_path / "state.json")
        written = []

        def write_and_keep(document, target):
            entries = write_snapshot(document, target)
            kept = f"{target}.{len(written)}"
            shutil.copyfile(target, kept)
            written.append((kept, entries))
            return entries

        monkeypatch.setattr(async_engine, "write_snapshot", write_and_keep)
        class PacedFill:
            """A DNS feed with idle gaps, as live ingest has: the loop
            waits in ``select`` and the executor gets to write."""

            realtime = True

            def paced(self, steps=20_000):
                for i in range(steps):
                    ts = i * 2.0  # a clear-up round every 1800 steps
                    yield (0.002 if i % 500 == 0 else 0.0), DnsRecord(
                        ts, f"svc{i}.example", RRType.A, 60,
                        f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}")
                    yield 0.0, DnsRecord(ts, f"www{i}.example", RRType.CNAME, 600,
                                         f"svc{i}.example")

        engine = AsyncEngine(EngineConfig(snapshot_path=path, snapshot_interval=0.005))
        report = engine.run([PacedFill()], [])

        assert report.warnings == []
        assert len(written) >= 3
        assert len({entries for _kept, entries in written}) >= 2  # taken mid-fill
        for kept, entries in written:
            assert load_snapshot(DnsStorage(FlowDNSConfig()), kept) == entries
        assert written[-1][1] == report.final_map_entries

    def test_teardown_waits_for_the_write_in_flight(self, tmp_path, monkeypatch):
        """Teardown cancels the periodic snapshot task, then writes the
        final snapshot through the same temp file: the two writes must
        not overlap."""
        from repro.core import async_engine
        from repro.core.async_engine import AsyncEngine
        from repro.core.config import EngineConfig

        path = str(tmp_path / "state.json")
        lock = threading.Lock()
        running = [0]
        seen = []

        def slow_write(document, target):
            with lock:
                running[0] += 1
                seen.append(running[0])
            try:
                time.sleep(0.05)
                return write_snapshot(document, target)
            finally:
                with lock:
                    running[0] -= 1

        class LateRecord:
            realtime = True

            def paced(self):
                # The run ends ~20 ms in, inside the first periodic write.
                yield 0.02, DnsRecord(1.0, "a.example", RRType.A, 60, "10.1.1.1")

        monkeypatch.setattr(async_engine, "write_snapshot", slow_write)
        engine = AsyncEngine(EngineConfig(snapshot_path=path, snapshot_interval=0.001))
        report = engine.run([LateRecord()], [])

        assert len(seen) >= 2  # a periodic write, then the final one
        assert max(seen) == 1
        assert report.warnings == []
        assert load_snapshot(DnsStorage(FlowDNSConfig()), path) == 1

    def test_rotation_roundtrip_preserves_correlation_rows(self, tmp_path):
        """Fill → rotate → snapshot → restore: a service restored from the
        snapshot (restore-on-start) correlates a flow corpus to the same
        rows as the original storage, with the same resident entries."""
        from repro.core.async_engine import AsyncEngine
        from repro.core.config import EngineConfig
        from repro.core.lookup import LookUpProcessor
        from repro.core.writer import WriteWorker
        from repro.netflow.records import FlowBatch, FlowRecord

        records = [
            DnsRecord(float(i % 50), f"svc{i}.example", RRType.A, 300,
                      f"10.9.{i // 200}.{i % 200 + 1}")
            for i in range(400)
        ]
        flows = [
            FlowRecord(ts=60.0, src_ip=f"10.9.{i // 200}.{i % 200 + 1}",
                       dst_ip="100.64.0.1", bytes_=100 + i % 7)
            for i in range(400)
        ]

        config = FlowDNSConfig()
        storage = DnsStorage(config)
        for record in records:
            _add(storage, record)
        storage.ip_bank.force_clear_up()
        storage.cname_bank.force_clear_up()
        path = str(tmp_path / "rotated.json")
        save_snapshot(storage, path)

        sink_orig = io.StringIO()
        lookup = LookUpProcessor(storage, config)
        WriteWorker(sink_orig).write_batch(
            lookup.correlate_batch_columns(FlowBatch.from_records(flows))
        )

        sink_restored = io.StringIO()
        engine = AsyncEngine(EngineConfig(snapshot_path=path), sink=sink_restored)
        report_restored = engine.run([], [flows])
        assert report_restored.restored_entries == storage.total_entries()
        assert (sorted(sink_orig.getvalue().splitlines())
                == sorted(sink_restored.getvalue().splitlines()))
        assert lookup.stats.matched == 400
        assert report_restored.matched_flows == 400
        assert report_restored.final_map_entries == storage.total_entries()


_IPS = [f"10.7.0.{i}" for i in range(1, 9)]
_NAMES = [f"n{i}.example" for i in range(6)]

#: One stream step: a fill batch (time advances per record), an IP
#: lookup batch, a one-hop CNAME lookup, or a chain memoisation.
_record = st.tuples(
    st.sampled_from([0.0, 1.5, 4.0, 7.0]),  # seconds since the previous record
    st.booleans(),  # True: A record (IP-NAME bank); False: CNAME
    st.sampled_from([5, 30]),  # short TTL, or long enough for the Long tier
    st.sampled_from(_NAMES),
    st.integers(0, len(_IPS) - 1),
)
_step = st.one_of(
    st.tuples(st.just("fill"), st.lists(_record, min_size=1, max_size=6)),
    st.tuples(st.just("ips"), st.lists(st.sampled_from(_IPS), max_size=4)),
    st.tuples(st.just("cname"), st.sampled_from(_NAMES)),
    st.tuples(st.just("memo"), st.sampled_from(_NAMES)),
)


def _comparable_document(storage):
    document = snapshot_document(storage)
    document.pop("saved_at")
    return json.dumps(document)  # keeps dict order: FIFO eviction reads it


class TestRestoreIsExact:
    """A store restored at any cut of a stream behaves from then on
    exactly like the store that was never interrupted."""

    CONFIG = FlowDNSConfig(
        a_clear_up_interval=10.0, c_clear_up_interval=20.0, max_entries_per_map=3
    )

    @staticmethod
    def _apply(storage, step, clock):
        """Apply one step; return what a lookup answered (None for fills)."""
        kind, arg = step
        if kind == "fill":
            records = []
            for gap, is_address, ttl, name, ip in arg:
                clock[0] += gap
                if is_address:
                    records.append(DnsRecord(clock[0], name, RRType.A, ttl, _IPS[ip]))
                else:
                    target = _NAMES[ip % len(_NAMES)]
                    records.append(DnsRecord(clock[0], name, RRType.CNAME, ttl, target))
            storage.add_many_columns(DnsBatch.from_records(records))
            return None
        if kind == "ips":
            return storage.lookup_ips(arg, clock[0])
        if kind == "cname":
            return storage.lookup_cname(arg, clock[0])
        storage.memoize_chain(arg, "final.example")
        return None

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(_step, min_size=1, max_size=30), data=st.data())
    def test_restore_at_any_cut_matches_uninterrupted(self, steps, data):
        cut = data.draw(st.integers(0, len(steps)), label="cut")
        original = DnsStorage(self.CONFIG)
        clock = [0.0]
        for step in steps[:cut]:
            self._apply(original, step, clock)

        buffer = io.StringIO()
        dump_storage(original, buffer)
        buffer.seek(0)
        restored = DnsStorage(self.CONFIG)
        load_storage(restored, buffer)

        restored_clock = list(clock)
        for step in steps[cut:]:
            expected = self._apply(original, step, clock)
            assert self._apply(restored, step, restored_clock) == expected, step
        assert restored.entry_counts() == original.entry_counts()
        assert _comparable_document(restored) == _comparable_document(original)
