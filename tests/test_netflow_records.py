"""Tests for repro.netflow.records."""

import ipaddress

import pytest

from repro.netflow.records import FlowRecord


class TestFlowRecord:
    def test_coerces_string_addresses(self):
        flow = FlowRecord(ts=1.0, src_ip="1.2.3.4", dst_ip="2001:db8::1")
        assert isinstance(flow.src_ip, ipaddress.IPv4Address)
        assert isinstance(flow.dst_ip, ipaddress.IPv6Address)

    def test_rejects_negative_counters(self):
        with pytest.raises(ValueError):
            FlowRecord(ts=0, src_ip="1.1.1.1", dst_ip="2.2.2.2", packets=-1)
        with pytest.raises(ValueError):
            FlowRecord(ts=0, src_ip="1.1.1.1", dst_ip="2.2.2.2", bytes_=-1)

    def test_rejects_bad_ports(self):
        with pytest.raises(ValueError):
            FlowRecord(ts=0, src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=70000)

    @pytest.mark.parametrize(
        "src_port,dst_port,expected",
        [(53, 40000, True), (40000, 53, True), (40000, 853, True), (443, 40000, False)],
    )
    def test_is_dns_port(self, src_port, dst_port, expected):
        flow = FlowRecord(
            ts=0, src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=src_port, dst_port=dst_port
        )
        assert flow.is_dns_port is expected

    def test_extra_not_part_of_equality(self):
        a = FlowRecord(ts=0, src_ip="1.1.1.1", dst_ip="2.2.2.2", extra={"x": 1})
        b = FlowRecord(ts=0, src_ip="1.1.1.1", dst_ip="2.2.2.2", extra={"y": 2})
        assert a == b
