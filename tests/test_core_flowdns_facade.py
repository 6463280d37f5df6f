"""Tests for the FlowDNS facade (the embeddable correlator object)."""

import pytest

from repro import FlowDNS, FlowDNSConfig
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowRecord


@pytest.fixture()
def fd():
    return FlowDNS()


def _chain(fd, ts=0.0):
    fd.add_dns(DnsRecord(ts, "www.svc.com", RRType.CNAME, 600, "edge.cdn.net"))
    fd.add_dns(DnsRecord(ts, "edge.cdn.net", RRType.A, 60, "10.5.5.5"))


class TestFacadeBasics:
    def test_add_and_correlate(self, fd):
        _chain(fd)
        result = fd.correlate(
            FlowRecord(ts=1.0, src_ip="10.5.5.5", dst_ip="100.64.0.1", bytes_=100)
        )
        assert result.service == "www.svc.com"

    def test_service_of(self, fd):
        _chain(fd)
        assert fd.service_of("10.5.5.5", now=1.0) == "www.svc.com"
        assert fd.service_of("9.9.9.9", now=1.0) is None

    def test_service_of_does_not_touch_stats(self, fd):
        _chain(fd)
        fd.service_of("10.5.5.5", now=1.0)
        assert fd.lookup_stats.flows_in == 0

    def test_correlate_many_and_rate(self, fd):
        _chain(fd)
        results = [fd.correlate(flow) for flow in (
            FlowRecord(ts=1.0, src_ip="10.5.5.5", dst_ip="100.64.0.1", bytes_=800),
            FlowRecord(ts=1.0, src_ip="172.16.0.1", dst_ip="100.64.0.1", bytes_=200),
        )]
        assert [r.matched for r in results] == [True, False]
        assert fd.correlation_rate == 0.8

    def test_entry_counts(self, fd):
        _chain(fd)
        counts = fd.entry_counts()
        assert counts["ip_name"]["active"] == 1
        assert counts["name_cname"]["active"] == 1


class TestFacadeTick:
    def test_tick_drives_rotation_without_dns_traffic(self, fd):
        _chain(fd, ts=0.0)
        fd.tick(10.0)  # arms the clear-up clock
        assert fd.service_of("10.5.5.5", now=10.0) == "www.svc.com"
        fd.tick(4000.0)  # one A-interval later: rotate (record → inactive)
        assert fd.service_of("10.5.5.5", now=4000.0) == "www.svc.com"
        fd.tick(8000.0)  # second rotation: gone
        assert fd.service_of("10.5.5.5", now=8000.0) is None

    def test_exact_ttl_facade(self):
        fd = FlowDNS(FlowDNSConfig(exact_ttl=True))
        fd.add_dns(DnsRecord(0.0, "x.example", RRType.A, 60, "10.1.1.1"))
        assert fd.service_of("10.1.1.1", now=30.0) == "x.example"
        assert fd.service_of("10.1.1.1", now=120.0) is None
