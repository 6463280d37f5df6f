"""Scenario library: synthesize captures worth replaying.

Each scenario builds a small, fully deterministic capture (a list of
:class:`~repro.replay.capture.CaptureFrame`) exercising one behaviour
the ROADMAP's "as many scenarios as you can imagine" goal cares about:

* ``bursts`` — steady traffic, then a zero-gap datagram burst, then
  steady again: timestamp-faithful replay reproduces the burst's
  buffer-overflow pressure, max-speed replay the contents;
* ``template-reannounce`` — NetFlow v9 and IPFIX streams whose capture
  starts mid-export (data before any template — the late-joiner drop
  path) and whose templates are re-announced mid-stream;
* ``malformed`` — valid traffic interleaved with garbage on both lanes:
  unknown export versions, truncated datagrams, undecodable DNS;
* ``cname-churn`` — names re-resolving through *changing* CNAME chains
  mid-capture, so chain walks and overwrite counting get exercised;
* ``ttl-expiry`` — records whose flows arrive exactly at, just before,
  and just after TTL expiry (run it under ``exact_ttl`` too — the
  differential harness does);
* ``two-site`` — the Section 4 browse-two-websites accuracy capture
  (same-IP variant: the second site's A record overwrites the first),
  straight from :func:`repro.workloads.two_site_capture`.

Scenarios synthesize *wire bytes* — DNS responses via
:func:`~repro.dns.wire.encode_response`, export datagrams via
:class:`~repro.netflow.export.FlowExporter` — because a capture
records what the sockets saw, not decoded objects. The golden corpus
under ``tests/data/golden/`` is these scenarios at seed 7; regenerate
with ``python -m repro.replay.scenarios <dir>`` or
``flowdns capture --scenario <name>``.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Dict, Iterable, List, Sequence

from repro.dns.rr import RRType
from repro.dns.wire import encode_response
from repro.netflow.export import FlowExporter
from repro.netflow.records import FlowRecord
from repro.replay.capture import CaptureFrame, LANE_DNS, LANE_FLOW, write_capture
from repro.util.errors import ConfigError
from repro.util.rng import derive_rng

#: Seed the golden corpus is generated with.
GOLDEN_SEED = 7


# --- wire-building helpers ---------------------------------------------------


def _message_wire(chain: Sequence[str], ip: str, ttl: int) -> bytes:
    """One A response resolving ``chain[0]`` through ``chain`` to ``ip``."""
    packed = ipaddress.IPv4Address(ip).packed
    return encode_response(0, chain, RRType.A, (packed,), ttl, ttl)


def _a_frame(ts: float, name: str, ip: str, ttl: int) -> CaptureFrame:
    return CaptureFrame(ts, LANE_DNS, _message_wire((name,), ip, ttl))


def _chain_frame(
    ts: float, name: str, targets: Sequence[str], ip: str, ttl: int
) -> CaptureFrame:
    """One response resolving ``name`` through a CNAME chain to ``ip``."""
    return CaptureFrame(ts, LANE_DNS, _message_wire((name, *targets), ip, ttl))


def _flow_frames(
    flows: Iterable[FlowRecord],
    start: float,
    gap: float,
    version: int = 9,
    batch_size: int = 24,
    template_refresh: int = 64,
) -> List[CaptureFrame]:
    """Export flows to datagrams, one frame per datagram, evenly paced."""
    exporter = FlowExporter(
        version=version, batch_size=batch_size, template_refresh=template_refresh
    )
    frames = []
    ts = start
    for datagram in exporter.export(flows):
        frames.append(CaptureFrame(ts, LANE_FLOW, datagram))
        ts += gap
    return frames


def _client_flows(
    rng, ips: Sequence[str], count: int, t0: float, span: float
) -> List[FlowRecord]:
    """Flows from the given server IPs towards clients, shuffled in time."""
    flows = []
    for i in range(count):
        flows.append(
            FlowRecord(
                ts=t0 + rng.uniform(0.0, span),
                src_ip=ips[i % len(ips)],
                dst_ip=f"100.64.7.{i % 20 + 1}",
                src_port=443,
                dst_port=49152 + i % 500,
                protocol=6,
                packets=1 + i % 9,
                bytes_=200 + 37 * (i % 41),
            )
        )
    flows.sort(key=lambda f: f.ts)
    return flows


def _background_flows(rng, count: int, t0: float, span: float) -> List[FlowRecord]:
    """Traffic from addresses no DNS record announces (unmatched rows)."""
    return [
        FlowRecord(
            ts=t0 + rng.uniform(0.0, span),
            src_ip=f"172.16.50.{i % 12 + 1}",
            dst_ip=f"100.64.9.{i % 6 + 1}",
            src_port=8443,
            dst_port=51000 + i % 200,
            protocol=17 if i % 3 == 0 else 6,
            packets=1 + i % 4,
            bytes_=64 + 11 * (i % 29),
        )
        for i in range(count)
    ]


# --- scenarios ---------------------------------------------------------------


def scenario_bursts(seed: int) -> List[CaptureFrame]:
    """Steady → zero-gap burst → steady, on the flow lane."""
    rng = derive_rng(seed, "bursts")
    ips = [f"10.20.0.{i + 1}" for i in range(30)]
    frames = [
        _a_frame(0.2 + 0.1 * i, f"svc{i}.burst.example", ip, 300)
        for i, ip in enumerate(ips)
    ]
    steady_a = sorted(
        _client_flows(rng, ips, 48, t0=5.0, span=4.0)
        + _background_flows(rng, 12, t0=5.0, span=4.0),
        key=lambda f: f.ts,
    )
    burst = _client_flows(rng, ips, 192, t0=10.0, span=0.05)
    steady_b = sorted(
        _client_flows(rng, ips, 48, t0=12.0, span=4.0)
        + _background_flows(rng, 12, t0=12.0, span=4.0),
        key=lambda f: f.ts,
    )
    frames += _flow_frames(steady_a, start=5.0, gap=0.25, batch_size=16)
    # The burst: every datagram stamped at the same instant — replayed
    # timestamp-faithful these land back-to-back, like the original burst.
    frames += _flow_frames(burst, start=10.0, gap=0.0, batch_size=16)
    frames += _flow_frames(steady_b, start=12.0, gap=0.25, batch_size=16)
    return frames


def scenario_template_reannounce(seed: int) -> List[CaptureFrame]:
    """v9 + IPFIX with a late-join head and mid-stream re-announces."""
    rng = derive_rng(seed, "template-reannounce")
    ips = [f"10.21.0.{i + 1}" for i in range(12)]
    frames = [
        _a_frame(0.2 + 0.1 * i, f"app{i}.tmpl.example", ip, 600)
        for i, ip in enumerate(ips)
    ]
    # Late join: the capture starts with a DATA datagram for a template
    # this collector has never seen — dropped and counted, identically,
    # by every engine's collector. It is an exporter's first data
    # datagram with the template announcement before it left out.
    orphans = _client_flows(rng, ips, 6, t0=4.0, span=0.5)
    _template, orphan_data = FlowExporter(batch_size=len(orphans)).export(orphans)
    frames.append(CaptureFrame(4.0, LANE_FLOW, orphan_data))
    # Then the proper streams; template_refresh=2 forces re-announces
    # every two data datagrams — mid-stream template churn.
    v9_flows = _client_flows(rng, ips, 96, t0=5.0, span=10.0)
    ipfix_flows = _client_flows(rng, ips, 96, t0=5.5, span=10.0)
    frames += _flow_frames(
        v9_flows, start=5.0, gap=0.2, version=9, batch_size=12, template_refresh=2
    )
    frames += _flow_frames(
        ipfix_flows, start=5.1, gap=0.2, version=10, batch_size=12, template_refresh=2
    )
    return frames


def scenario_malformed(seed: int) -> List[CaptureFrame]:
    """Garbage interleaved with valid traffic on both lanes."""
    rng = derive_rng(seed, "malformed")
    ips = [f"10.22.0.{i + 1}" for i in range(8)]
    frames = []
    for i, ip in enumerate(ips):
        frames.append(_a_frame(0.2 + 0.2 * i, f"ok{i}.mal.example", ip, 300))
        if i % 2 == 0:
            # Undecodable DNS payloads: pure garbage, and a truncated
            # copy of a real message — both count as invalid, not fatal.
            frames.append(CaptureFrame(0.25 + 0.2 * i, LANE_DNS, b"\xde\xad\xbe\xef" * 3))
    good_wire = _message_wire(("trunc.mal.example",), "10.22.9.9", 60)
    frames.append(CaptureFrame(1.9, LANE_DNS, good_wire[: len(good_wire) // 2]))

    flows = sorted(
        _client_flows(rng, ips, 64, t0=5.0, span=8.0)
        + _background_flows(rng, 16, t0=5.0, span=8.0),
        key=lambda f: f.ts,
    )
    good = _flow_frames(flows, start=5.0, gap=0.2, version=9, batch_size=16)
    bad = [
        CaptureFrame(5.05, LANE_FLOW, b"\x00\x63junk-export-version-99"),
        CaptureFrame(5.45, LANE_FLOW, b"\x00"),  # shorter than the version probe
        CaptureFrame(5.85, LANE_FLOW, good[1].payload[:11]),  # truncated v9 body
    ]
    frames += sorted(good + bad, key=lambda f: f.ts)
    return frames


def scenario_cname_churn(seed: int) -> List[CaptureFrame]:
    """CNAME chains whose targets change mid-capture."""
    rng = derive_rng(seed, "cname-churn")
    frames: List[CaptureFrame] = []
    old_ips, new_ips = [], []
    for i in range(10):
        name = f"www{i}.churn.example"
        old_ip, new_ip = f"10.30.0.{i + 1}", f"10.30.1.{i + 1}"
        old_ips.append(old_ip)
        new_ips.append(new_ip)
        # First resolution: a 2-step chain through provider A.
        frames.append(
            _chain_frame(0.5 + 0.3 * i, name, [f"edge{i}.cdn-a.example"], old_ip, 120)
        )
        # Mid-capture churn: the same name re-resolves through provider
        # B with a *longer* chain and a new address.
        frames.append(
            _chain_frame(
                12.0 + 0.3 * i,
                name,
                [f"lb{i}.cdn-b.example", f"pop{i}.cdn-b.example"],
                new_ip,
                60,
            )
        )
    flows = _client_flows(rng, old_ips, 48, t0=4.0, span=6.0)
    flows += _client_flows(rng, old_ips + new_ips, 96, t0=16.0, span=8.0)
    flows += _background_flows(rng, 24, t0=4.0, span=20.0)
    flows.sort(key=lambda f: f.ts)
    frames += _flow_frames(flows, start=4.0, gap=0.15, batch_size=20)
    return frames


def scenario_ttl_expiry(seed: int) -> List[CaptureFrame]:
    """Flows timed exactly around record TTL expiry boundaries."""
    rng = derive_rng(seed, "ttl-expiry")
    frames: List[CaptureFrame] = []
    flows: List[FlowRecord] = []
    for i in range(12):
        name = f"ttl{i}.exact.example"
        ip = f"10.40.0.{i + 1}"
        ttl = 30 + 5 * (i % 3)
        born = 1.0 + 0.5 * i
        frames.append(_a_frame(born, name, ip, ttl))
        expiry = born + ttl
        for offset in (-5.0, -0.5, 0.0, 0.5, 5.0):
            flows.append(
                FlowRecord(
                    ts=expiry + offset,
                    src_ip=ip,
                    dst_ip=f"100.64.8.{i + 1}",
                    src_port=443,
                    dst_port=50000 + i,
                    protocol=6,
                    packets=2,
                    bytes_=500 + 10 * i + int(10 * offset) % 7,
                )
            )
    # A tail of flows past the sweep interval, so exact-TTL sweeps run.
    flows += _client_flows(rng, ["10.40.0.1", "10.40.0.2"], 16, t0=65.0, span=5.0)
    flows.sort(key=lambda f: f.ts)
    frames += _flow_frames(flows, start=2.0, gap=0.3, batch_size=10)
    return frames


def scenario_two_site(seed: int) -> List[CaptureFrame]:
    """The paper's same-IP two-website capture, as wire bytes."""
    from repro.workloads.pcaplike import two_site_capture

    capture = two_site_capture(same_ip=True, seed=seed)
    frames = [
        _a_frame(rec.ts, rec.query, rec.answer, rec.ttl)
        for rec in capture.dns_records
    ]
    frames += _flow_frames(capture.flow_records, start=3.0, gap=0.1, batch_size=8)
    return frames


SCENARIOS: Dict[str, Callable[[int], List[CaptureFrame]]] = {
    "bursts": scenario_bursts,
    "template-reannounce": scenario_template_reannounce,
    "malformed": scenario_malformed,
    "cname-churn": scenario_cname_churn,
    "ttl-expiry": scenario_ttl_expiry,
    "two-site": scenario_two_site,
}


def build_scenario(name: str, seed: int = GOLDEN_SEED) -> List[CaptureFrame]:
    """Synthesize one scenario's frames, in capture (chronological) order.

    The sort is what a real recorder would have produced — frames land
    in the file as they arrive — and it is load-bearing for
    ``--realtime`` replay: per-lane inter-arrival gaps are computed from
    consecutive same-lane frames, so a lane whose timestamps oscillated
    would sleep far longer than the recorded span (negative gaps clamp
    to zero, positive ones all get slept). The sort is stable, so the
    zero-gap burst frames keep their datagram order.
    """
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    frames = builder(seed)
    frames.sort(key=lambda frame: frame.ts)
    return frames


def write_scenario(name: str, path: str, seed: int = GOLDEN_SEED) -> int:
    """Synthesize a scenario straight to a capture file; returns frames."""
    return write_capture(path, build_scenario(name, seed=seed))


def main(argv=None) -> int:  # pragma: no cover - regeneration utility
    """Regenerate the scenario corpus: ``python -m repro.replay.scenarios DIR``."""
    import os
    import sys

    args = argv if argv is not None else sys.argv[1:]
    out_dir = args[0] if args else os.path.join("tests", "data", "golden")
    os.makedirs(out_dir, exist_ok=True)
    for name in SCENARIOS:
        path = os.path.join(out_dir, f"{name}.fdc")
        count = write_scenario(name, path)
        print(f"wrote {path} ({count} frames)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
