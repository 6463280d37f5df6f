"""Tests for FlowCollector and FlowExporter working together."""

import pytest

from repro.netflow.collector import FlowCollector, probe_version
from repro.netflow.exporter import FlowExporter
from repro.netflow.records import FlowRecord
from repro.util.errors import ConfigError, ParseError


def _ingest(collector, datagram):
    """One datagram through the production collector entry, as records."""
    return collector.ingest_columns(datagram).to_records()


def _flows(n, v6_every=0):
    out = []
    for i in range(n):
        v6 = v6_every and i % v6_every == 0
        out.append(
            FlowRecord(
                ts=5000.0 + i,
                src_ip=f"2001:db8::{i + 1:x}" if v6 else f"10.2.3.{(i % 250) + 1}",
                dst_ip="2001:db8::aaaa" if v6 else "192.168.9.9",
                src_port=443,
                dst_port=50000 + (i % 1000),
                bytes_=1000 + i,
                packets=1 + i % 5,
            )
        )
    return out


class TestExporterConfig:
    def test_rejects_unknown_version(self):
        with pytest.raises(ConfigError):
            FlowExporter(version=7)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigError):
            FlowExporter(version=9, batch_size=0)

    def test_v5_batch_cap(self):
        with pytest.raises(ConfigError):
            FlowExporter(version=5, batch_size=31)


@pytest.mark.parametrize("version", [5, 9, 10])
class TestRoundTrip:
    def test_all_flows_recovered(self, version):
        flows = _flows(100)
        exporter = FlowExporter(version=version, batch_size=24 if version != 5 else 30)
        collector = FlowCollector()
        decoded = []
        for datagram in exporter.export(flows):
            decoded.extend(_ingest(collector, datagram))
        assert len(decoded) == 100
        assert sum(f.bytes_ for f in decoded) == sum(f.bytes_ for f in flows)

    def test_collector_stats(self, version):
        flows = _flows(10)
        exporter = FlowExporter(version=version, batch_size=10)
        collector = FlowCollector()
        for datagram in exporter.export(flows):
            _ingest(collector, datagram)
        assert collector.stats.flows == 10
        assert collector.stats.malformed == 0
        assert (version if version != 10 else 10) in collector.stats.by_version


class TestV9Mixed:
    def test_mixed_v4_v6_batch(self):
        flows = _flows(20, v6_every=4)
        exporter = FlowExporter(version=9, batch_size=20)
        collector = FlowCollector()
        decoded = []
        for datagram in exporter.export(flows):
            decoded.extend(_ingest(collector, datagram))
        assert len(decoded) == 20
        assert sum(1 for f in decoded if f.src_ip.version == 6) == 5

    def test_template_refresh(self):
        flows = _flows(200)
        exporter = FlowExporter(version=9, batch_size=10, template_refresh=3)
        datagrams = list(exporter.export(flows))
        # With refresh every 3 data flowsets there are multiple templates.
        collector = FlowCollector()
        total = sum(len(_ingest(collector, d)) for d in datagrams)
        assert total == 200


class TestCollectorRobustness:
    def test_garbage_counted_not_raised(self):
        collector = FlowCollector()
        assert _ingest(collector, b"\x00") == []
        assert _ingest(collector, b"\xff" * 40) == []
        assert collector.stats.malformed + collector.stats.unknown_version == 2

    def test_unknown_version_counted(self):
        collector = FlowCollector()
        _ingest(collector, b"\x00\x07" + b"\x00" * 30)
        assert collector.stats.unknown_version == 1

    def test_truncated_v5_counted_malformed(self):
        flows = _flows(2)
        wire = FlowExporter(version=5, batch_size=2)
        datagram = next(iter(wire.export(flows)))
        collector = FlowCollector()
        assert _ingest(collector, datagram[:30]) == []
        assert collector.stats.malformed == 1

    def test_probe_version_raises_parse_error_not_struct_error(self):
        """Regression: sub-2-byte datagrams must raise the codec's own error."""
        for short in (b"", b"\x05"):
            with pytest.raises(ParseError):
                probe_version(short)

    def test_short_datagram_counted_malformed(self):
        collector = FlowCollector()
        assert _ingest(collector, b"") == []
        assert _ingest(collector, b"\x09") == []
        assert collector.stats.malformed == 2
        assert collector.stats.datagrams == 0

    def test_pipeline_survives_interleaved_garbage(self):
        flows = _flows(50)
        exporter = FlowExporter(version=9, batch_size=25)
        collector = FlowCollector()
        decoded = []
        for datagram in exporter.export(flows):
            decoded.extend(_ingest(collector, datagram))
            _ingest(collector, b"\xde\xad\xbe\xef")
        assert len(decoded) == 50
