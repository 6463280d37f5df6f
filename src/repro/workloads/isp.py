"""ISP workload presets: the paper's two deployments as synthetic streams.

:class:`IspWorkload` turns a :class:`DomainUniverse` + CDN hosting into
two timestamp-ordered record streams with the statistical structure the
paper's evaluation depends on:

* resolutions arrive Poisson with the diurnal rate shape of Figure 2;
* flows reference *past* resolutions with a lag distribution in which
  most traffic follows the resolution immediately (within the TTL), a
  cached share arrives anywhere in the TTL window, and a small stale
  tail arrives after TTL expiry (multi-level resolver caching) — this
  tail is precisely what separates Main / NoClearUp / NoRotation /
  NoLong correlation rates (Figure 7);
* 1 in 20 resolutions is invisible (client used a public resolver) —
  Section 4's 95 % coverage;
* a non-DNS background carries the remaining byte share, including
  port-53/853 flows toward ISP and public resolvers for the coverage
  analysis.

Both streams are lazy generators, deterministic in the seed, and can be
re-created independently (``dns_records()`` and ``flow_records()``
regenerate the same resolution sequence internally), so week-long
replays never materialise the whole workload in memory.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.metrics import CostModelParams
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowRecord
from repro.util.errors import ConfigError
from repro.util.rng import derive_rng
from repro.workloads.cdn import CdnHosting, Resolution, default_providers
from repro.workloads.diurnal import DiurnalPattern
from repro.workloads.domains import DomainUniverse, build_universe
from repro.workloads.ttl_model import TtlModel

#: 1 of every 20 DNS packets goes to a public resolver (Section 4).
PUBLIC_RESOLVER_FRACTION = 0.05

#: ISP-side resolver addresses (the default resolvers clients use).
ISP_RESOLVER_IPS = ("10.255.0.53", "10.255.1.53")

#: Public resolvers clients bypass the ISP with. Kept in sync with
#: repro.analysis.public_resolvers (tests enforce the overlap).
PUBLIC_RESOLVER_IPS = ("1.1.1.1", "8.8.8.8", "8.8.4.4", "9.9.9.9", "208.67.222.222")

#: Client (subscriber) address pool — CGNAT space.
CLIENT_PREFIX = "100.64"

#: Non-DNS background sources (peer-to-peer, direct-IP, legacy) — space
#: disjoint from every CDN pool so it can never correlate.
BACKGROUND_SOURCE_PREFIX = "172.16"


@dataclass
class LagModel:
    """How long after its resolution a flow's bytes arrive.

    ``immediate`` flows start right away (session setup); ``cached``
    flows arrive uniformly within the record's TTL (the client resolved
    once and keeps using the answer); ``stale`` flows arrive after TTL
    expiry — resolver multi-level caching means traffic legitimately
    outlives the record, the effect FlowDNS's rotation buffer exists to
    absorb.
    """

    immediate_fraction: float = 0.76
    cached_fraction: float = 0.19
    stale_mean_extra: float = 5600.0
    stale_cap: float = 9.0 * 3600.0
    #: Origin-hosted services skew heavily toward cached/stale arrivals:
    #: one resolution, then hours of transfer (and nobody else's
    #: resolution refreshes their dedicated IP).
    origin_immediate_fraction: float = 0.45
    origin_cached_fraction: float = 0.25

    def sample(self, rng: random.Random, ttl: float, origin: bool = False) -> float:
        immediate = self.origin_immediate_fraction if origin else self.immediate_fraction
        cached = self.origin_cached_fraction if origin else self.cached_fraction
        x = rng.random()
        if x < immediate:
            return rng.uniform(0.5, max(1.0, min(ttl, 600.0)))
        if x < immediate + cached:
            return rng.uniform(0.5, max(1.0, ttl))
        extra = rng.expovariate(1.0 / self.stale_mean_extra)
        return min(max(ttl, 300.0) + extra, self.stale_cap)


class IspWorkload:
    """One deployment's synthetic DNS + Netflow streams."""

    def __init__(
        self,
        universe: DomainUniverse,
        hosting: CdnHosting,
        seed: int,
        duration: float,
        resolution_rate: float,
        flow_rate_per_resolution: float = 2.6,
        background_byte_fraction: float = 0.12,
        public_resolver_fraction: float = PUBLIC_RESOLVER_FRACTION,
        lag_model: Optional[LagModel] = None,
        diurnal: Optional[DiurnalPattern] = None,
        warmup: float = 7200.0,
        t0: float = 0.0,
        mean_bytes_per_resolution: float = 2_000_000.0,
        cost_params: Optional[CostModelParams] = None,
        dns_port_flow_multiplier: float = 1.0,
        worker_count: int = 8,
    ):
        if duration <= 0:
            raise ConfigError("duration must be positive")
        if resolution_rate <= 0:
            raise ConfigError("resolution_rate must be positive")
        if not 0.0 <= background_byte_fraction < 1.0:
            raise ConfigError("background_byte_fraction must be in [0, 1)")
        self.universe = universe
        self.hosting = hosting
        self.seed = seed
        self.duration = float(duration)
        self.resolution_rate = float(resolution_rate)
        self.flow_rate_per_resolution = flow_rate_per_resolution
        self.background_byte_fraction = background_byte_fraction
        self.public_resolver_fraction = public_resolver_fraction
        self.lag_model = lag_model if lag_model is not None else LagModel()
        self.diurnal = diurnal if diurnal is not None else DiurnalPattern()
        self.warmup = float(warmup)
        self.t0 = float(t0)
        self.cost_params = cost_params if cost_params is not None else CostModelParams()
        self.dns_port_flow_multiplier = dns_port_flow_multiplier
        self.worker_count = worker_count
        # Per-service mean bytes per resolution, normalised so the
        # popularity-weighted mean equals ``mean_bytes_per_resolution``.
        total_pop = sum(s.popularity for s in universe.services)
        weighted = sum(s.byte_weight for s in universe.services) / total_pop
        self._bytes_scale = mean_bytes_per_resolution / weighted

    # --- resolution process ---------------------------------------------------

    def _resolutions(self) -> Iterator[Resolution]:
        """The shared resolution event sequence (deterministic in seed)."""
        rng = derive_rng(self.seed, "resolutions")
        t = self.t0 - self.warmup
        end = self.t0 + self.duration
        while True:
            rate = self.diurnal.rate_at(self.resolution_rate, t)
            t += rng.expovariate(rate)
            if t >= end:
                return
            service = self.universe.sample_service(rng)
            visible = rng.random() >= self.public_resolver_fraction
            yield self.hosting.resolve(service, t, rng, visible=visible)

    # --- DNS stream -----------------------------------------------------------

    def dns_records(self) -> Iterator[DnsRecord]:
        """The DNS cache-miss stream (visible resolutions only)."""
        for resolution in self._resolutions():
            if resolution.visible:
                yield from resolution.records()

    # --- flow stream ----------------------------------------------------------

    def _flows_for(self, resolution: Resolution, rng: random.Random, seq_start: int) -> List[Tuple[float, int, FlowRecord]]:
        """Spawn the downstream traffic one resolution explains."""
        service = resolution.service
        mean_bytes = self._bytes_scale * (service.byte_weight / service.popularity)
        total_bytes = max(200, int(rng.lognormvariate(0.0, 0.8) * mean_bytes))
        n_flows = max(1, round(rng.expovariate(1.0 / self.flow_rate_per_resolution)))
        out: List[Tuple[float, int, FlowRecord]] = []
        client = self._client_ip(rng)
        remaining = total_bytes
        end = self.t0 + self.duration
        for i in range(n_flows):
            lag = self.lag_model.sample(
                rng, resolution.effective_ttl, origin=service.origin_hosted
            )
            ts = resolution.ts + lag
            if ts < self.t0 or ts >= end:
                continue
            share = remaining // (n_flows - i)
            remaining -= share
            flow = FlowRecord(
                ts=ts,
                src_ip=resolution.ip,
                dst_ip=client,
                src_port=443,
                dst_port=49152 + rng.randrange(16000),
                protocol=6,
                packets=max(1, share // 1400),
                bytes_=share,
            )
            out.append((ts, seq_start + i, flow))
        # Section 5: a small share of clients answer malformed-domain
        # traffic back on non-web ports (OpenVPN 1194, Kerberos 88) —
        # only some malformed domains are interactive services at all
        # (paper: 2.7 % of receiving clients reply, to 23.6 % of the
        # malformed domains).
        interactive = _name_coin(service.name) % 4 == 0
        if (
            service.category == "mal-formatted"
            and interactive
            and out
            and rng.random() < 0.2
        ):
            first_ts, _, first_flow = out[0]
            port = 1194 if rng.random() < 0.6 else 88
            reply = FlowRecord(
                ts=first_ts + 0.5,
                src_ip=first_flow.dst_ip,
                dst_ip=first_flow.src_ip,
                src_port=first_flow.dst_port,
                dst_port=port,
                protocol=17 if port == 1194 else 6,
                packets=2,
                bytes_=240,
            )
            if reply.ts < end:
                out.append((reply.ts, seq_start + n_flows, reply))
        return out

    def _client_ip(self, rng: random.Random) -> str:
        return f"{CLIENT_PREFIX}.{rng.randrange(256)}.{rng.randrange(1, 255)}"

    def _background_flows(self) -> Iterator[FlowRecord]:
        """Non-DNS-related traffic plus resolver-port flows.

        Byte rate is tied to the DNS-related byte rate so the background
        byte share stays at ``background_byte_fraction`` of the total.
        """
        rng = derive_rng(self.seed, "background")
        dns_byte_rate = self.resolution_rate * self._mean_bytes_per_resolution()
        bg_fraction = self.background_byte_fraction
        bg_byte_rate = dns_byte_rate * bg_fraction / (1.0 - bg_fraction)
        mean_bg_bytes = 600_000.0
        bg_flow_rate = bg_byte_rate / mean_bg_bytes
        dns_port_rate = self.resolution_rate * self.dns_port_flow_multiplier
        t = self.t0
        end = self.t0 + self.duration
        total_rate = bg_flow_rate + dns_port_rate
        while True:
            t += rng.expovariate(self.diurnal.rate_at(total_rate, t))
            if t >= end:
                return
            if rng.random() < bg_flow_rate / total_rate:
                yield FlowRecord(
                    ts=t,
                    src_ip=(
                        f"{BACKGROUND_SOURCE_PREFIX}.{rng.randrange(256)}."
                        f"{rng.randrange(1, 255)}"
                    ),
                    dst_ip=self._client_ip(rng),
                    src_port=rng.choice((443, 80, 8080, 6881)),
                    dst_port=49152 + rng.randrange(16000),
                    protocol=6,
                    packets=max(1, int(rng.lognormvariate(0.0, 1.0) * mean_bg_bytes) // 1400),
                    bytes_=max(80, int(rng.lognormvariate(0.0, 1.0) * mean_bg_bytes)),
                )
            else:
                # A client DNS/DoT query flow: tiny, but the coverage
                # analysis counts them (1/20 to public resolvers).
                public = rng.random() < PUBLIC_RESOLVER_FRACTION
                resolver = (
                    PUBLIC_RESOLVER_IPS[rng.randrange(len(PUBLIC_RESOLVER_IPS))]
                    if public
                    else ISP_RESOLVER_IPS[rng.randrange(len(ISP_RESOLVER_IPS))]
                )
                dot = rng.random() < 0.1
                yield FlowRecord(
                    ts=t,
                    src_ip=self._client_ip(rng),
                    dst_ip=resolver,
                    src_port=49152 + rng.randrange(16000),
                    dst_port=853 if dot else 53,
                    protocol=6 if dot else 17,
                    packets=1,
                    bytes_=rng.randrange(60, 140),
                )

    def _mean_bytes_per_resolution(self) -> float:
        total_pop = sum(s.popularity for s in self.universe.services)
        weighted = sum(s.byte_weight for s in self.universe.services) / total_pop
        return self._bytes_scale * weighted

    def flow_records(self) -> Iterator[FlowRecord]:
        """The Netflow stream, globally ordered by timestamp."""
        rng = derive_rng(self.seed, "flows")
        heap: List[Tuple[float, int, FlowRecord]] = []
        seq = 0
        background = self._background_flows()
        next_bg = next(background, None)

        def emit_up_to(ts: float) -> Iterator[FlowRecord]:
            nonlocal next_bg
            while True:
                heap_ready = heap and heap[0][0] <= ts
                bg_ready = next_bg is not None and next_bg.ts <= ts
                if heap_ready and (not bg_ready or heap[0][0] <= next_bg.ts):
                    yield heapq.heappop(heap)[2]
                elif bg_ready:
                    yield next_bg
                    next_bg = next(background, None)
                else:
                    return

        for resolution in self._resolutions():
            yield from emit_up_to(resolution.ts)
            flows = self._flows_for(resolution, rng, seq)
            seq += len(flows) + 1
            for item in flows:
                heapq.heappush(heap, item)
        yield from emit_up_to(float("inf"))



def _name_coin(name: str) -> int:
    """A fixed per-name pseudo-random value (32-bit FNV-1a of the name).

    The workload's own: which services are "interactive" is part of the
    corpus, and must not move when the storage layer changes its hash.
    """
    h = 0x811C9DC5
    for byte in name.encode("utf-8", errors="surrogateescape"):
        h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
    return h


# --- presets -------------------------------------------------------------------


def _preset_cost_params(
    resolution_rate: float,
    flow_rate_per_resolution: float,
    background_byte_fraction: float,
    mean_bytes_per_resolution: float,
    dns_port_flow_multiplier: float,
    paper_flow_rate: float,
    paper_dns_rate: float,
    entry_scale: float,
) -> CostModelParams:
    """Derive the sim→deployment scale factors for one preset.

    The sim flow rate is the sum of content flows (per resolution),
    background flows (tied to the byte share), and resolver-port flows.
    """
    content_rate = resolution_rate * flow_rate_per_resolution
    dns_byte_rate = resolution_rate * mean_bytes_per_resolution
    bg_byte_rate = (
        dns_byte_rate * background_byte_fraction / (1.0 - background_byte_fraction)
    )
    bg_rate = bg_byte_rate / 600_000.0
    dns_port_rate = resolution_rate * dns_port_flow_multiplier
    sim_flow_rate = content_rate + bg_rate + dns_port_rate
    sim_dns_rate = resolution_rate * 2.5  # ≈ records per resolution
    return CostModelParams(
        rate_scale=paper_flow_rate / sim_flow_rate,
        dns_rate_scale=paper_dns_rate / sim_dns_rate,
        entry_scale=entry_scale,
    )


def large_isp(
    seed: int = 7,
    duration: float = 86400.0,
    resolution_rate: float = 1.2,
    n_benign: int = 2000,
    **overrides,
) -> IspWorkload:
    """The large European ISP (Section 2): 75K DNS rec/s, 1M flow rec/s,
    26 Netflow + 2 DNS streams, ~25 cores / 15–30 GB in the paper.

    Simulated at ``resolution_rate`` resolutions/s (~2.5 DNS records and
    ~4 flows each); the cost model's scale factors extrapolate resource
    figures back to deployment scale.
    """
    universe = build_universe(seed, n_benign=n_benign)
    hosting = CdnHosting(universe, default_providers(), seed=seed, ttl_model=TtlModel())
    defaults = dict(
        resolution_rate=resolution_rate,
        flow_rate_per_resolution=2.6,
        background_byte_fraction=0.15,
        mean_bytes_per_resolution=2_000_000.0,
        dns_port_flow_multiplier=1.0,
        worker_count=60,
    )
    defaults.update(overrides)
    defaults["cost_params"] = overrides.get(
        "cost_params",
        _preset_cost_params(
            resolution_rate=defaults["resolution_rate"],
            flow_rate_per_resolution=defaults["flow_rate_per_resolution"],
            background_byte_fraction=defaults["background_byte_fraction"],
            mean_bytes_per_resolution=defaults["mean_bytes_per_resolution"],
            dns_port_flow_multiplier=defaults["dns_port_flow_multiplier"],
            paper_flow_rate=1_000_000.0,
            paper_dns_rate=75_000.0,
            entry_scale=2600.0,
        ),
    )
    return IspWorkload(universe, hosting, seed=seed, duration=duration, **defaults)


def small_isp(
    seed: int = 11,
    duration: float = 86400.0,
    resolution_rate: float = 0.6,
    n_benign: int = 800,
    **overrides,
) -> IspWorkload:
    """The smaller European ISP: 115K DNS rec/s over one stream, 138K
    flow rec/s over two — ~300 % CPU and ~6 GB in the paper.

    Relative to the large ISP it has more DNS per flow and far fewer
    workers, which is why its memory is an order of magnitude lower.
    """
    universe = build_universe(seed, n_benign=n_benign)
    hosting = CdnHosting(universe, default_providers(), seed=seed, ttl_model=TtlModel())
    defaults = dict(
        resolution_rate=resolution_rate,
        flow_rate_per_resolution=1.2,
        background_byte_fraction=0.15,
        mean_bytes_per_resolution=2_000_000.0,
        dns_port_flow_multiplier=1.0,
        worker_count=8,
    )
    defaults.update(overrides)
    defaults["cost_params"] = overrides.get(
        "cost_params",
        _preset_cost_params(
            resolution_rate=defaults["resolution_rate"],
            flow_rate_per_resolution=defaults["flow_rate_per_resolution"],
            background_byte_fraction=defaults["background_byte_fraction"],
            mean_bytes_per_resolution=defaults["mean_bytes_per_resolution"],
            dns_port_flow_multiplier=defaults["dns_port_flow_multiplier"],
            paper_flow_rate=138_000.0,
            paper_dns_rate=115_000.0,
            entry_scale=1600.0,
        ),
    )
    return IspWorkload(universe, hosting, seed=seed, duration=duration, **defaults)
