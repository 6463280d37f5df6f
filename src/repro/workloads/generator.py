"""Internet-scale synthetic workload generator: streaming ``.fdc`` emission.

The replay corpus's hand-built scenarios total a few hundred flows; this
module generates captures at the ROADMAP's "millions of users" scale by
composing the existing building blocks (:func:`~repro.workloads.domains.
build_universe`, :class:`~repro.workloads.cdn.CdnHosting`,
:class:`~repro.workloads.ttl_model.TtlModel`,
:class:`~repro.workloads.diurnal.DiurnalPattern`) with the distribution
machinery the related generators use:

* **Zipf domain popularity** with a configurable exponent (algotel2016's
  content-popularity model — the universe's popularity column *is* the
  Zipf CDF, so rank sampling is one bisect);
* **heavy-tailed flow sizes** from named CDF tables in the style of
  rotorsim's ``flow_generator.py`` (websearch / datamining shapes);
* **Poisson client arrivals** — one aggregate ``expovariate`` event
  stream whose rate is ``clients × per_client_rate``, so a million-client
  population costs O(1) state: client addresses are computed from an
  index, never materialised;
* **configurable CNAME-chain depth** (Figure 6's weights truncated at
  ``chain_depth``) and **TTL profiles**, and **multi-CDN shared pools**
  (``cdn_count`` generic providers on top of the streaming CDNs).

Emission is *streaming and bounded*: DNS responses are cached per
service while their TTL lasts (a resolver answering from cache — which
is also why re-encoding is rare enough to be cheap), flows ride a
bounded time-bucket reorder buffer, and wire bytes go straight to a
:class:`~repro.replay.capture.CaptureWriter`. Nothing proportional to
the trace length is ever held in memory.

Determinism contract: every random stream derives from
``(params.seed, label)`` via :func:`repro.util.rng.derive_rng` — the
same helper the scenario corpus regeneration uses — so any
``(seed, params)`` pair produces byte-identical capture files on any
Python version (no ``hash()``-order dependence anywhere on the path).
"""

from __future__ import annotations

import bisect
import ipaddress
import math
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.dns.wire import encode_response
from repro.netflow.export import PackedV9Exporter
from repro.replay.capture import LANE_DNS, LANE_FLOW, CaptureFrame, CaptureWriter
from repro.util.errors import ConfigError, ParseError
from repro.util.rng import derive_rng
from repro.workloads.cdn import CdnHosting, Resolution, default_providers
from repro.workloads.diurnal import DiurnalPattern, FlatPattern
from repro.workloads.domains import build_universe, chain_weights_for_depth
from repro.workloads.ttl_model import TtlModel

#: Client source addresses are computed, not stored: client ``i`` is
#: ``100.64.0.0/10 + i`` (CGNAT space — what an eyeball ISP's flow
#: exports actually carry) and its dual-stack twin ``2001:db8:feed::/64
#: + i``. The /10 bounds the population at 2^22 ≈ 4.2M clients.
CLIENT_V4_BASE = 0x64400000  # 100.64.0.0
CLIENT_V6_BASE = 0x20010DB8FEED0000 << 64  # 2001:db8:feed::/64
MAX_CLIENTS = 1 << 22

#: Named flow-size CDFs: ``(size_bytes, probability)`` points, in the
#: style of rotorsim's ``SizeDistribution`` tables. ``websearch`` is the
#: classic mice-heavy RPC shape; ``datamining`` is the heavier-tailed
#: shape where half the flows are tiny and a sliver reaches a gigabyte;
#: ``uniform`` is the degenerate shape for differential tests.
SIZE_CDFS: Dict[str, Tuple[Tuple[int, float], ...]] = {
    "websearch": (
        (6 * 1024, 0.15),
        (10 * 1024, 0.20),
        (14 * 1024, 0.30),
        (19 * 1024, 0.20),
        (30 * 1024, 0.09),
        (100 * 1024, 0.04),
        (1 << 20, 0.015),
        (10 << 20, 0.005),
    ),
    "datamining": (
        (100, 0.50),
        (300, 0.10),
        (1024, 0.10),
        (10 * 1024, 0.12),
        (100 * 1024, 0.10),
        (1 << 20, 0.04),
        (10 << 20, 0.025),
        (100 << 20, 0.012),
        (1 << 30, 0.003),
    ),
    "uniform": (
        (1024, 0.25),
        (2048, 0.25),
        (4096, 0.25),
        (8192, 0.25),
    ),
}

#: Named TTL profiles: ``paper`` is the Figure 8-calibrated default;
#: ``short`` concentrates below 300 s (stresses re-resolution churn and
#: clear-up); ``long`` pushes everything toward the Long-hashmap regime.
TTL_PROFILES: Dict[str, Optional[Tuple[Tuple[Tuple[int, float], ...], Tuple[Tuple[int, float], ...]]]] = {
    "paper": None,  # TtlModel() defaults
    "short": (
        ((30, 0.35), (60, 0.35), (120, 0.20), (299, 0.10)),
        ((60, 0.50), (299, 0.50)),
    ),
    "long": (
        ((600, 0.30), (1800, 0.30), (3600, 0.30), (7200, 0.10)),
        ((1800, 0.40), (3600, 0.40), (14400, 0.20)),
    ),
}

#: P(k flows per resolution): a client that just resolved a name opens a
#: small burst of connections (page assets, API calls, media segments).
#: Mean ≈ 2.9 flows per resolution.
FLOW_BURST_WEIGHTS: Tuple[Tuple[int, float], ...] = (
    (1, 0.35),
    (2, 0.25),
    (3, 0.15),
    (4, 0.10),
    (6, 0.07),
    (8, 0.05),
    (12, 0.03),
)


def ttl_model_for(profile: str) -> TtlModel:
    """Build the :class:`TtlModel` for a named profile."""
    if profile not in TTL_PROFILES:
        raise ConfigError(
            f"unknown TTL profile {profile!r}; choose one of {sorted(TTL_PROFILES)}"
        )
    weights = TTL_PROFILES[profile]
    if weights is None:
        return TtlModel()
    return TtlModel(address_weights=weights[0], cname_weights=weights[1])


class SizeCdf:
    """A discrete flow-size distribution sampled by one bisect per draw."""

    def __init__(self, points: Tuple[Tuple[int, float], ...]):
        if not points:
            raise ConfigError("size CDF needs at least one point")
        total = sum(p for _, p in points)
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"size CDF probabilities sum to {total}, expected 1.0")
        last = 0
        for size, prob in points:
            if size <= last:
                raise ConfigError("size CDF sizes must be positive and increasing")
            if size >= 1 << 32:
                raise ConfigError("size CDF sizes must fit the 32-bit IN_BYTES field")
            if prob < 0:
                raise ConfigError("size CDF probabilities must be non-negative")
            last = size
        self.points = tuple(points)
        self.sizes = [size for size, _ in points]
        cumulative: List[float] = []
        acc = 0.0
        for _, prob in points:
            acc += prob
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self.cumulative = cumulative

    @classmethod
    def named(cls, name: str) -> "SizeCdf":
        if name not in SIZE_CDFS:
            raise ConfigError(
                f"unknown flow-size CDF {name!r}; choose one of {sorted(SIZE_CDFS)}"
            )
        return cls(SIZE_CDFS[name])

    def sample(self, rng) -> int:
        return self.sizes[bisect.bisect_left(self.cumulative, rng.random())]

    def mean(self) -> float:
        prev = 0.0
        out = 0.0
        for (size, _), cum in zip(self.points, self.cumulative):
            out += size * (cum - prev)
            prev = cum
        return out


@dataclass(frozen=True)
class GeneratorParams:
    """Everything one generated capture depends on.

    ``(seed, params)`` fully determine the output bytes. The aggregate
    resolution-event rate is ``clients * per_client_rate`` unless
    ``base_rate`` pins it directly (the perf benchmark does, so its rate
    does not ride on the client-count axis).
    """

    seed: int = 0
    clients: int = 5000
    duration: float = 60.0
    start_ts: float = 0.0
    base_rate: Optional[float] = None
    per_client_rate: float = 0.02  # resolutions/s per client
    n_domains: int = 400
    zipf_alpha: float = 0.9
    chain_depth: int = 4
    flow_size_cdf: str = "websearch"
    ttl_profile: str = "paper"
    cdn_count: int = 3
    aaaa_fraction: float = 0.1
    ephemeral_fraction: float = 0.1
    public_resolver_fraction: float = 0.0
    long_lived_fraction: float = 0.04
    rare_origin_fraction: float = 0.05
    abuse_byte_share: float = 0.005
    diurnal_amplitude: float = 0.0  # 0 = flat rate (Poisson-exact)
    flow_burst_weights: Tuple[Tuple[int, float], ...] = FLOW_BURST_WEIGHTS
    lag_mean: float = 1.5  # mean resolve→flow start lag (s)
    lag_max: float = 20.0
    batch_size: int = 30
    template_refresh: int = 64
    bucket_width: float = 0.5  # reorder-buffer granularity (s)
    max_pending: int = 65536  # hard bound on buffered flows

    def __post_init__(self):
        if self.clients < 1 or self.clients > MAX_CLIENTS:
            raise ConfigError(f"clients must be in [1, {MAX_CLIENTS}]")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.base_rate is not None and self.base_rate <= 0:
            raise ConfigError("base_rate must be positive")
        if self.per_client_rate <= 0:
            raise ConfigError("per_client_rate must be positive")
        if self.zipf_alpha < 0:
            raise ConfigError("zipf_alpha must be non-negative")
        if self.chain_depth < 1:
            raise ConfigError("chain_depth must be at least 1")
        if self.n_domains < 3:
            raise ConfigError("n_domains must be at least 3")
        if self.cdn_count < 1:
            raise ConfigError("cdn_count must be at least 1")
        for name, value in (
            ("aaaa_fraction", self.aaaa_fraction),
            ("ephemeral_fraction", self.ephemeral_fraction),
            ("public_resolver_fraction", self.public_resolver_fraction),
            ("long_lived_fraction", self.long_lived_fraction),
            ("rare_origin_fraction", self.rare_origin_fraction),
            ("abuse_byte_share", self.abuse_byte_share),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.public_resolver_fraction >= 1.0:
            raise ConfigError("public_resolver_fraction must be below 1")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError("diurnal_amplitude must be in [0, 1)")
        if self.lag_mean <= 0 or self.lag_max < 0:
            raise ConfigError("lag_mean must be positive and lag_max non-negative")
        if self.batch_size < 1 or self.template_refresh < 1:
            raise ConfigError("batch_size and template_refresh must be at least 1")
        if self.bucket_width <= 0:
            raise ConfigError("bucket_width must be positive")
        if self.max_pending < 2 * self.batch_size:
            raise ConfigError("max_pending must be at least twice batch_size")
        # Fail on unknown names at construction, not mid-stream.
        SizeCdf.named(self.flow_size_cdf)
        ttl_model_for(self.ttl_profile)
        total = sum(w for _, w in self.flow_burst_weights)
        if abs(total - 1.0) > 1e-6:
            raise ConfigError("flow_burst_weights must sum to 1.0")

    @property
    def resolution_rate(self) -> float:
        """Aggregate resolution events per second."""
        if self.base_rate is not None:
            return self.base_rate
        return self.clients * self.per_client_rate

    def replace(self, **changes) -> "GeneratorParams":
        return replace(self, **changes)

    @classmethod
    def from_args(cls, args) -> "GeneratorParams":
        """Build params from a parsed CLI namespace, presence-validated.

        The :meth:`EngineConfig.from_args` pattern: every flag defaults
        to ``None`` in argparse so this layer owns effective defaults and
        rejects contradictory combinations with an operator-facing
        :class:`ConfigError` (the CLI maps it to exit code 2).
        """
        rate = getattr(args, "rate", None)
        per_client = getattr(args, "per_client_rate", None)
        if rate is not None and per_client is not None:
            raise ConfigError(
                "--rate pins the aggregate resolution rate; it cannot be "
                "combined with --per-client-rate"
            )
        overrides = {}
        for flag, fname in (
            ("seed", "seed"),
            ("clients", "clients"),
            ("duration", "duration"),
            ("n_domains", "n_domains"),
            ("zipf_alpha", "zipf_alpha"),
            ("chain_depth", "chain_depth"),
            ("flow_size_cdf", "flow_size_cdf"),
            ("ttl_profile", "ttl_profile"),
            ("cdn_count", "cdn_count"),
            ("aaaa_fraction", "aaaa_fraction"),
            ("public_resolver_fraction", "public_resolver_fraction"),
            ("diurnal_amplitude", "diurnal_amplitude"),
        ):
            value = getattr(args, flag, None)
            if value is not None:
                overrides[fname] = value
        if rate is not None:
            overrides["base_rate"] = rate
        if per_client is not None:
            overrides["per_client_rate"] = per_client
        return cls(**overrides)


@dataclass
class GeneratorReport:
    """What one generation pass produced (plus wall-clock emission rate)."""

    params: GeneratorParams
    flows: int = 0
    flow_bytes: int = 0
    resolutions: int = 0
    cache_misses: int = 0
    dns_frames: int = 0
    flow_frames: int = 0
    malformed_dns_frames: int = 0
    invisible_resolutions: int = 0
    peak_pending: int = 0
    overflow_flushes: int = 0
    frames_written: int = 0
    wire_bytes: int = 0
    elapsed: float = 0.0

    @property
    def flows_per_sec(self) -> float:
        return self.flows / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def answers_per_sec(self) -> float:
        """Encoded DNS answers (``cache_misses``) per wall-clock second."""
        return self.cache_misses / self.elapsed if self.elapsed > 0 else 0.0


class WorkloadGenerator:
    """One seeded streaming workload; see the module docstring.

    ``events()`` yields the raw resolution-event stream (what the
    statistical tests sample); ``frames()`` yields wire frames;
    ``write()`` streams them into a capture file. Each call re-derives
    its RNG streams, so repeated passes over one generator instance are
    identical.
    """

    def __init__(self, params: GeneratorParams):
        self.params = params
        extra = tuple(f"pool-cdn-{i}" for i in range(params.cdn_count))
        self.universe = build_universe(
            params.seed,
            n_benign=params.n_domains,
            zipf_alpha=params.zipf_alpha,
            long_lived_fraction=params.long_lived_fraction,
            rare_origin_fraction=params.rare_origin_fraction,
            abuse_byte_share=params.abuse_byte_share,
            chain_length_weights=chain_weights_for_depth(params.chain_depth),
            include_abuse=params.abuse_byte_share > 0,
        )
        self.ttl_model = ttl_model_for(params.ttl_profile)
        self.hosting = CdnHosting(
            self.universe,
            providers=default_providers(extra=extra),
            seed=params.seed,
            ttl_model=self.ttl_model,
            aaaa_fraction=params.aaaa_fraction,
            ephemeral_fraction=params.ephemeral_fraction,
        )
        self.size_cdf = SizeCdf.named(params.flow_size_cdf)
        self.pattern: DiurnalPattern = (
            DiurnalPattern(amplitude=params.diurnal_amplitude)
            if params.diurnal_amplitude > 0
            else FlatPattern()
        )
        self.last_report: Optional[GeneratorReport] = None
        # Answer address text -> packed rdata. Bounded by the hosting
        # pools, not by the number of resolutions.
        self._packed: Dict[str, bytes] = {}

    # --- event stream -----------------------------------------------------

    def events(self) -> Iterator[Tuple[float, object]]:
        """Yield ``(ts, service)`` resolution events, Poisson-paced.

        Arrivals are one aggregate exponential-gap process (thinned by
        the diurnal factor when configured); domains are drawn from the
        universe's popularity CDF — one bisect per event, the inlined
        body of ``DomainUniverse.sample_service``.
        """
        p = self.params
        rng_arrival = derive_rng(p.seed, "gen:arrivals")
        rng_domain = derive_rng(p.seed, "gen:domains")
        services = self.universe.services
        pop_cdf = self.universe.popularity_cdf
        last = len(services) - 1
        bisect_left = bisect.bisect_left
        domain_random = rng_domain.random
        rate_at = self.pattern.rate_at
        expovariate = rng_arrival.expovariate
        base = p.resolution_rate
        t = p.start_ts
        end = p.start_ts + p.duration
        while True:
            t += expovariate(rate_at(base, t))
            if t >= end:
                return
            idx = bisect_left(pop_cdf, domain_random())
            yield t, services[idx if idx < last else last]

    # --- DNS side ---------------------------------------------------------

    def _answer_addresses(self, res: Resolution) -> Tuple[bytes, ...]:
        """Packed A/AAAA rdata for ``res.ips``, each text parsed once."""
        table = self._packed
        out = []
        for ip in res.ips:
            packed = table.get(ip)
            if packed is None:
                packed = table[ip] = ipaddress.ip_address(ip).packed
            out.append(packed)
        return tuple(out)

    # --- frame stream -----------------------------------------------------

    def frames(self) -> Iterator[CaptureFrame]:
        """Stream wire frames; ``self.last_report`` is complete afterwards."""
        report = GeneratorReport(params=self.params)
        self.last_report = report
        for ts, lane, payload in self._stream(report):
            yield CaptureFrame(ts, lane, payload)

    def _stream(self, report: GeneratorReport) -> Iterator[Tuple[float, str, bytes]]:
        p = self.params
        rng_dns = derive_rng(p.seed, "gen:dns")
        rng_flow = derive_rng(p.seed, "gen:flows")
        rng_client = derive_rng(p.seed, "gen:clients")
        rng_vis = derive_rng(p.seed, "gen:visibility")

        # Hot-loop locals.
        log = math.log
        flow_random = rng_flow.random
        client_random = rng_client.random
        vis_random = rng_vis.random
        burst_sizes = [k for k, _ in p.flow_burst_weights]
        burst_cum: List[float] = []
        acc = 0.0
        for _, w in p.flow_burst_weights:
            acc += w
            burst_cum.append(acc)
        burst_cum[-1] = 1.0
        size_cum = self.size_cdf.cumulative
        size_values = self.size_cdf.sizes
        bisect_left = bisect.bisect_left
        lag_mean = p.lag_mean
        lag_max = p.lag_max
        clients = p.clients
        public_fraction = p.public_resolver_fraction
        inv_width = 1.0 / p.bucket_width

        exporter = PackedV9Exporter(
            batch_size=p.batch_size, template_refresh=p.template_refresh
        )
        export_batch = exporter.export_batch
        carry: List[tuple] = []  # partial batch spanning bucket flushes
        batch_size = p.batch_size
        last_flow_frame_ts = p.start_ts

        # service name -> (expiry_ts, wire_bytes, packed server addresses)
        cache: Dict[str, Tuple[float, bytes, Tuple[bytes, ...]]] = {}
        # bucket index -> flow tuples; flushed once the event clock passes
        # the bucket's right edge (every later event only adds later flows,
        # so a passed bucket is final and the flow lane stays sorted).
        buckets: Dict[int, List[tuple]] = {}
        pending = 0
        flush_head = int(p.start_ts * inv_width)

        def emit_flows(rows: List[tuple]) -> Iterator[Tuple[float, str, bytes]]:
            # One finalized bucket: order it, prepend the partial batch
            # left over from the previous flush, and emit full batches by
            # slicing (C-speed) instead of per-row appends. Whole-tuple
            # sort keeps ties deterministic without a per-row key call.
            nonlocal last_flow_frame_ts, carry
            rows.sort()
            if carry:
                rows = carry + rows
            pos = 0
            end = len(rows) - batch_size
            while pos <= end:
                chunk = rows[pos:pos + batch_size]
                pos += batch_size
                frame_ts = chunk[0][0]
                if frame_ts < last_flow_frame_ts:
                    frame_ts = last_flow_frame_ts
                last_flow_frame_ts = frame_ts
                for datagram in export_batch(chunk):
                    report.flow_frames += 1
                    yield (frame_ts, LANE_FLOW, datagram)
            carry = rows[pos:]

        buckets_get = buckets.get
        cache_get = cache.get
        max_pending = p.max_pending
        flows_total = 0
        bytes_total = 0
        resolutions = 0
        peak_pending = 0

        try:
            for t, service in self.events():
                # Flush every bucket the event clock has passed.
                head = int(t * inv_width)
                if head > flush_head:
                    for idx in range(flush_head, head):
                        rows = buckets.pop(idx, None)
                        if rows:
                            pending -= len(rows)
                            yield from emit_flows(rows)
                    flush_head = head

                resolutions += 1
                name = service.name
                entry = cache_get(name)
                if entry is None or t >= entry[0]:
                    res = self.hosting.resolve(service, t, rng_dns)
                    servers = self._answer_addresses(res)
                    try:
                        wire = encode_response(
                            rng_dns.getrandbits(16), res.chain, res.rtype, servers,
                            res.cname_ttl, res.a_ttl,
                        )
                    except ParseError:
                        # The abuse population's mal-formatted category
                        # violates RFC 1035 on purpose (labels over 63
                        # bytes, underscores); those names cannot ride a
                        # real DNS message. A collector would see exactly
                        # that — an undecodable answer — so emit the raw
                        # name as the frame payload: replay counts it
                        # under dns_invalid and the flows stay unmatched.
                        wire = b"\xff\xff" + name.encode("utf-8", "surrogateescape")
                        report.malformed_dns_frames += 1
                    entry = (t + res.a_ttl, wire, servers)
                    cache[name] = entry
                    report.cache_misses += 1
                if public_fraction and vis_random() < public_fraction:
                    report.invisible_resolutions += 1
                else:
                    report.dns_frames += 1
                    yield (t, LANE_DNS, entry[1])

                # Burst of downstream flows from the resolved addresses:
                # server → client, paper orientation (the engines look the
                # flow's *source* address up in the IP-NAME maps, the way
                # FlowDNS sees CDN bytes arrive at an eyeball ISP).
                servers = entry[2]
                n_servers = len(servers)
                n_flows = burst_sizes[bisect_left(burst_cum, flow_random())]
                client = int(client_random() * clients)
                if client >= clients:  # guard the 2^-53 rounding edge
                    client = clients - 1
                if len(servers[0]) == 16:
                    client_addr = (CLIENT_V6_BASE + client).to_bytes(16, "big")
                else:
                    client_addr = (CLIENT_V4_BASE + client).to_bytes(4, "big")
                t1 = t + 0.001
                for _ in range(n_flows):
                    # Inline Exp(1/lag_mean): one C-level draw, no
                    # method-call overhead at hundreds of kHz.
                    lag = -log(1.0 - flow_random()) * lag_mean
                    fts = t1 + lag if lag < lag_max else t1 + lag_max
                    size = size_values[bisect_left(size_cum, flow_random())]
                    row = (
                        fts,
                        servers[int(flow_random() * n_servers) % n_servers]
                        if n_servers > 1
                        else servers[0],
                        client_addr,
                        443 if flow_random() < 0.9 else 80,
                        32768 + int(flow_random() * 28232.0),
                        6,
                        1 + size // 1448,
                        size,
                    )
                    key = int(fts * inv_width)
                    rows = buckets_get(key)
                    if rows is None:
                        buckets[key] = [row]
                    else:
                        rows.append(row)
                    bytes_total += size
                flows_total += n_flows
                pending += n_flows
                if pending > peak_pending:
                    peak_pending = pending
                if pending > max_pending:
                    # Hard memory bound: force-flush the oldest buckets even
                    # though they are not final yet. Later flows that would
                    # have landed in them get emitted behind the advanced
                    # flush head, so the buffer stays bounded and emission
                    # deterministic.
                    report.overflow_flushes += 1
                    while pending > max_pending // 2 and buckets:
                        idx = min(buckets)
                        rows = buckets.pop(idx)
                        pending -= len(rows)
                        yield from emit_flows(rows)
                        if idx >= flush_head:
                            flush_head = idx + 1

            # End of stream: every bucket is final. Flush in index order,
            # then drain the partial batch.
            for idx in sorted(buckets):
                yield from emit_flows(buckets[idx])
            buckets.clear()
            if carry:
                frame_ts = max(carry[0][0], last_flow_frame_ts)
                for datagram in export_batch(carry):
                    report.flow_frames += 1
                    yield (frame_ts, LANE_FLOW, datagram)
                carry = []
        finally:
            report.flows = flows_total
            report.flow_bytes = bytes_total
            report.resolutions = resolutions
            report.peak_pending = peak_pending

    # --- capture emission ---------------------------------------------------

    def write(self, target: Union[str, object]) -> GeneratorReport:
        """Stream the whole workload into ``target`` (path or binary file)."""
        started = time.perf_counter()
        writer = CaptureWriter(target)
        report = GeneratorReport(params=self.params)
        self.last_report = report
        try:
            writer.record_stream(self._stream(report))
            writer.ensure_open()  # an empty config still leaves a valid capture
        finally:
            writer.close()
        report.elapsed = time.perf_counter() - started
        report.frames_written = writer.frames_written
        report.wire_bytes = writer.bytes_written
        return report


def generate_capture(
    params: GeneratorParams, target: Union[str, object]
) -> GeneratorReport:
    """Generate one capture file from ``params``; returns the report."""
    return WorkloadGenerator(params).write(target)


# Re-exported for CLI listings.
__all__ = [
    "FLOW_BURST_WEIGHTS",
    "GeneratorParams",
    "GeneratorReport",
    "SIZE_CDFS",
    "SizeCdf",
    "TTL_PROFILES",
    "WorkloadGenerator",
    "generate_capture",
    "ttl_model_for",
]
