#!/usr/bin/env python3
"""The live service, end to end: asyncio FlowDNS over real sockets.

The paper's deployment shape in one process: the engine binds a UDP
endpoint for NetFlow/IPFIX exports and a TCP server for length-framed
DNS messages (RFC 1035 §4.2.2), exactly what `flowdns serve` runs; this
script then plays both the ISP resolver (DNS over TCP) and the router
(NetFlow v9 over UDP) against it from the main thread, and finally asks
the engine to drain and report.

Everything travels in wire format over the loopback interface — socket
receive, columnar decode, correlate, TSV write.

Run with:  python examples/live_async_pipeline.py
"""

import io
import ipaddress
import socket
import threading
import time

from repro import FlowDNSConfig, FlowExporter
from repro.core.async_engine import AsyncEngine
from repro.core.ingest import TcpDnsIngest, UdpFlowIngest
from repro.core.writer import parse_result_line
from repro.dns.rr import RRType
from repro.dns.tcp import frame_messages
from repro.dns.wire import encode_response
from repro.netflow.records import FlowRecord

N_SERVICES = 120
FLOWS_PER_SERVICE = 40


def build_dns_wires():
    """RFC 1035 messages: every service resolves through a short chain."""
    wires = []
    for i in range(N_SERVICES):
        name = f"svc{i}.example"
        address = ipaddress.IPv4Address(f"10.44.{i // 250}.{i % 250 + 1}").packed
        if i % 4 == 0:
            wire = encode_response(0, (name, f"edge{i}.cdn.net"), RRType.A, (address,), 600, 120)
        else:
            wire = encode_response(0, (name,), RRType.A, (address,), 300, 300)
        wires.append(wire)
    return wires


def build_flow_datagrams():
    flows = [
        FlowRecord(ts=30.0 + (i % 60), src_ip=f"10.44.0.{i % N_SERVICES + 1}",
                   dst_ip="100.64.0.1", bytes_=200 + i % 97)
        for i in range(N_SERVICES * FLOWS_PER_SERVICE)
    ]
    return len(flows), list(FlowExporter(version=9, batch_size=24).export(flows))


def main() -> None:
    sink = io.StringIO()
    # The resolver→collector path stamps messages on arrival; a fixed
    # clock keeps this demo's TTL windows aligned with the flow corpus.
    dns_ingest = TcpDnsIngest(clock=lambda: 10.0)
    flow_ingest = UdpFlowIngest()
    engine = AsyncEngine(FlowDNSConfig(), sink=sink)

    runner = threading.Thread(
        target=lambda: setattr(main, "report", engine.run(dns_ingest, flow_ingest)),
        daemon=True,
    )
    runner.start()
    dns_addr = dns_ingest.wait_ready()
    flow_addr = flow_ingest.wait_ready()
    print(f"engine listening: DNS tcp://{dns_addr[0]}:{dns_addr[1]}  "
          f"NetFlow udp://{flow_addr[0]}:{flow_addr[1]}")

    wires = build_dns_wires()
    print(f"resolver: shipping {len(wires)} DNS messages over TCP ...")
    with socket.create_connection(dns_addr, timeout=10.0) as conn:
        conn.sendall(frame_messages(wires))
    expected_records = len(wires) + len(wires) // 4  # one A each, CNAMEs on every 4th
    deadline = time.perf_counter() + 30.0
    while engine.dns_records_seen < expected_records:
        if time.perf_counter() > deadline:
            raise SystemExit(
                f"DNS fill stalled at {engine.dns_records_seen}/{expected_records}"
            )
        time.sleep(0.01)

    n_flows, datagrams = build_flow_datagrams()
    print(f"router: exporting {n_flows} flows in {len(datagrams)} v9 datagrams over UDP ...")
    start = time.perf_counter()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
        for datagram in datagrams:
            udp.sendto(datagram, flow_addr)
    while engine.flows_seen < n_flows and time.perf_counter() - start < 30.0:
        time.sleep(0.01)
    elapsed = time.perf_counter() - start

    engine.request_stop()
    runner.join(timeout=30.0)
    if runner.is_alive() or not hasattr(main, "report"):
        raise SystemExit("engine failed to drain and report within 30s")
    report = main.report

    print(f"\ndrained in {elapsed:.2f} s of live ingest "
          f"({report.flow_records / elapsed:,.0f} flows/s through real sockets)")
    print(f"  dns records       : {report.dns_records:,}")
    print(f"  flows correlated  : {report.matched_flows:,}/{report.flow_records:,} "
          f"({report.correlation_rate:.1%} of bytes)")
    for name, stats in report.ingest.items():
        print(f"  {name}: received={stats.received:,} dropped={stats.dropped:,} "
              f"malformed={stats.malformed:,}")

    rows = [parse_result_line(line) for line in sink.getvalue().splitlines()]
    rows = [r for r in rows if r and r["service"]]
    print("\nsample output rows:")
    for row in rows[:5]:
        print(f"  {row['ts']:8.1f}  {row['src_ip']:>12s} -> {row['dst_ip']:<12s} "
              f"{row['bytes']:>6d} B  {row['service']}")


if __name__ == "__main__":
    main()
