"""Tests for the configurable input-format adapter."""

import io
import json

import pytest

from repro.core.adapter import (
    DnsAdapter,
    FieldSpec,
    FlowAdapter,
    iter_csv,
    iter_jsonl,
    load_mapping,
    load_mapping_file,
)
from repro.dns.rr import RRType
from repro.util.errors import ConfigError, ParseError

FLOW_CONFIG = {
    "ts": {"field": "end_time", "unit": "ms"},
    "src_ip": {"field": "sa"},
    "dst_ip": {"field": "da"},
    "bytes": {"field": "ibyt", "default": 0},
    "packets": {"field": "ipkt", "default": 1},
    "dst_port": {"field": "dp", "default": 0},
}

DNS_CONFIG = {
    "ts": "timestamp",
    "query": "qname",
    "rtype": "type",
    "ttl": "ttl",
    "answer": "rdata",
}


class TestFieldSpec:
    def test_string_shorthand(self):
        spec = FieldSpec.from_config("qname")
        assert spec.field == "qname"

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError):
            FieldSpec.from_config({"field": "ts", "unit": "fortnights"})

    def test_missing_field_key_rejected(self):
        with pytest.raises(ConfigError):
            FieldSpec.from_config({"unit": "s"})

    def test_default_applies_when_absent_or_empty(self):
        spec = FieldSpec.from_config({"field": "x", "default": 7})
        assert spec.extract({}) == 7
        assert spec.extract({"x": ""}) == 7
        assert spec.extract({"x": "3"}) == "3"

    def test_required_field_missing_raises(self):
        spec = FieldSpec.from_config("x")
        with pytest.raises(ParseError):
            spec.extract({})

    def test_time_units(self):
        record = {"t": "1500"}
        assert FieldSpec.from_config({"field": "t", "unit": "ms"}).extract_time(record) == 1.5
        assert FieldSpec.from_config({"field": "t", "unit": "s"}).extract_time(record) == 1500.0

    def test_bad_time_raises(self):
        spec = FieldSpec.from_config("t")
        with pytest.raises(ParseError):
            spec.extract_time({"t": "noon"})


class TestFlowAdapter:
    def test_missing_required_mapping_rejected(self):
        with pytest.raises(ConfigError):
            FlowAdapter.from_config({"ts": "t"})

    def test_adapt_row(self):
        adapter = FlowAdapter.from_config(FLOW_CONFIG)
        flow = adapter.adapt(
            {"end_time": "1700000000000", "sa": "10.1.1.1", "da": "100.64.0.1",
             "ibyt": "1234", "ipkt": "3", "dp": "443"}
        )
        assert flow.ts == 1700000000.0
        assert str(flow.src_ip) == "10.1.1.1"
        assert flow.bytes_ == 1234 and flow.packets == 3 and flow.dst_port == 443

    def test_defaults_fill_gaps(self):
        adapter = FlowAdapter.from_config(FLOW_CONFIG)
        flow = adapter.adapt({"end_time": "0", "sa": "1.1.1.1", "da": "2.2.2.2"})
        assert flow.bytes_ == 0 and flow.packets == 1

    def test_bad_ip_raises(self):
        adapter = FlowAdapter.from_config(FLOW_CONFIG)
        with pytest.raises(ParseError):
            adapter.adapt({"end_time": "0", "sa": "not-an-ip", "da": "2.2.2.2"})

    def test_adapt_many_counts_malformed(self):
        adapter = FlowAdapter.from_config(FLOW_CONFIG)
        rows = [
            {"end_time": "0", "sa": "1.1.1.1", "da": "2.2.2.2"},
            {"end_time": "0", "sa": "garbage", "da": "2.2.2.2"},
            {"end_time": "0", "sa": "3.3.3.3", "da": "4.4.4.4"},
        ]
        flows = list(adapter.adapt_many(rows))
        assert len(flows) == 2
        assert adapter.stats.malformed == 1


class TestDnsAdapter:
    def test_adapt_a_record(self):
        adapter = DnsAdapter.from_config(DNS_CONFIG)
        rec = adapter.adapt(
            {"timestamp": "100.5", "qname": "X.Example.COM", "type": "A",
             "ttl": "300", "rdata": "10.1.1.1"}
        )
        assert rec.rtype == RRType.A
        assert rec.query == "x.example.com"
        assert rec.ttl == 300

    def test_numeric_rtype_aliases(self):
        adapter = DnsAdapter.from_config(DNS_CONFIG)
        rec = adapter.adapt(
            {"timestamp": "1", "qname": "a.example", "type": "5",
             "ttl": "60", "rdata": "b.example"}
        )
        assert rec.rtype == RRType.CNAME

    def test_other_rtypes_skipped(self):
        adapter = DnsAdapter.from_config(DNS_CONFIG)
        assert adapter.adapt(
            {"timestamp": "1", "qname": "a.example", "type": "TXT",
             "ttl": "60", "rdata": "x"}
        ) is None
        assert adapter.stats.skipped_rtype == 1

    def test_negative_ttl_raises(self):
        adapter = DnsAdapter.from_config(DNS_CONFIG)
        with pytest.raises(ParseError):
            adapter.adapt({"timestamp": "1", "qname": "a.example", "type": "A",
                           "ttl": "-5", "rdata": "10.1.1.1"})

    def test_adapt_many(self):
        adapter = DnsAdapter.from_config(DNS_CONFIG)
        rows = [
            {"timestamp": "1", "qname": "a.example", "type": "A", "ttl": "60",
             "rdata": "10.1.1.1"},
            {"timestamp": "1", "qname": "b.example", "type": "MX", "ttl": "60",
             "rdata": "m.example"},
            {"timestamp": "bad", "qname": "c.example", "type": "A", "ttl": "60",
             "rdata": "10.2.2.2"},
        ]
        records = list(adapter.adapt_many(rows))
        assert len(records) == 1
        assert adapter.stats.skipped_rtype == 1
        assert adapter.stats.malformed == 1


class TestLoadMapping:
    def test_both_sections(self):
        dns, flow = load_mapping({"dns": DNS_CONFIG, "flow": FLOW_CONFIG})
        assert dns is not None and flow is not None

    def test_single_section_ok(self):
        dns, flow = load_mapping({"dns": DNS_CONFIG})
        assert dns is not None and flow is None

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError):
            load_mapping({})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"dns": DNS_CONFIG, "flow": FLOW_CONFIG}))
        dns, flow = load_mapping_file(str(path))
        assert dns is not None and flow is not None

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_mapping_file(str(path))


class TestRowIterators:
    def test_iter_csv(self):
        handle = io.StringIO("a,b\n1,2\n3,4\n")
        rows = list(iter_csv(handle))
        assert rows == [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]

    def test_iter_jsonl_skips_garbage(self):
        handle = io.StringIO('{"a": 1}\nnot json\n\n{"b": 2}\n[1,2]\n')
        rows = list(iter_jsonl(handle))
        assert rows == [{"a": 1}, {"b": 2}]
