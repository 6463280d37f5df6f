"""Tests for storage snapshot/restore."""

import io
import os

import pytest

from repro.core.config import FlowDNSConfig
from repro.core.storage_adapter import DnsStorage
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.storage.snapshot import (
    dump_storage,
    load_snapshot,
    load_storage,
    save_snapshot,
    snapshot_saved_at,
)
from repro.util.errors import ParseError


def _filled_storage():
    storage = DnsStorage(FlowDNSConfig())
    records = [
        DnsRecord(0.0, "a.example", RRType.A, 60, "10.1.1.1"),
        DnsRecord(0.0, "long.example", RRType.A, 86400, "10.2.2.2"),
        DnsRecord(0.0, "www.svc.com", RRType.CNAME, 600, "edge.cdn.net"),
    ]
    for rec in records:
        storage.add_record(rec)
    # Force one rotation so the inactive tier is populated too.
    storage.ip_bank.force_clear_up()
    storage.add_record(DnsRecord(10.0, "b.example", RRType.A, 60, "10.3.3.3"))
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
        original.add_record(DnsRecord(1000.0, "a.example", RRType.A, 60, "10.1.1.1"))
        buffer = io.StringIO()
        dump_storage(original, buffer)
        restored = DnsStorage(FlowDNSConfig())
        buffer.seek(0)
        load_storage(restored, buffer)
        # A put within the same interval must NOT trigger a rotation.
        restored.add_record(DnsRecord(2000.0, "b.example", RRType.A, 60, "10.2.2.2"))
        assert restored.ip_bank.stats.rotations == 0
        # One past the interval must.
        restored.add_record(DnsRecord(5000.0, "c.example", RRType.A, 60, "10.3.3.3"))
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

    def test_split_mismatch_rejected(self):
        original = _filled_storage()
        buffer = io.StringIO()
        dump_storage(original, buffer)
        buffer.seek(0)
        incompatible = DnsStorage(FlowDNSConfig(num_split=3))
        with pytest.raises(ParseError):
            load_storage(incompatible, buffer)

    def test_clear_up_interval_mismatch_rejected(self):
        original = _filled_storage()
        buffer = io.StringIO()
        dump_storage(original, buffer)
        buffer.seek(0)
        incompatible = DnsStorage(FlowDNSConfig(a_clear_up_interval=123.0))
        with pytest.raises(ParseError, match="clear_up_interval"):
            load_storage(incompatible, buffer)


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
        import json

        document = json.loads(document_text)
        document["name_cname"]["tiers"]["active"] = "not-a-list"
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
        import json

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
            storage.add_record(record)
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
