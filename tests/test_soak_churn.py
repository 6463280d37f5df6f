"""CNAME-churn soak: the bounded-memory gate.

A long-lived ``serve`` is fed by resolvers whose CDN names re-resolve
endlessly — every step maps a *fresh* name to a fresh CNAME chain and a
fresh IP, so nothing is ever reused and an unbounded store grows
forever (the paper's collectors run for weeks; Section 3's maps must
not). With ``max_entries_per_map`` set, the store must stay under a
fixed bound *throughout* the run — sampled live, not just at the end —
while the most recent window keeps correlating at full accuracy,
because eviction is exact FIFO per tier.
"""

import io

from repro.core.async_engine import AsyncEngine
from repro.core.config import FlowDNSConfig
from repro.core.writer import parse_result_line
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowRecord

#: The soak's memory envelope: per-tier cap x three tiers
#: (active/inactive/long) x two banks (ip_name + name_cname).
_CAP = 300
_BOUND = _CAP * 3 * 2


def _config(max_entries):
    # Small rotation intervals so the soak crosses several clear-ups:
    # eviction must compose with rotation, not replace it.
    return FlowDNSConfig(a_clear_up_interval=20.0, c_clear_up_interval=20.0,
                         max_entries_per_map=max_entries)


def _ip(i):
    return f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}"


def _churn_records(steps):
    """Two records per step: svc{i} -> edge{i} (CNAME), edge{i} -> ip (A)."""
    for i in range(steps):
        ts = i * 0.01
        yield DnsRecord(ts, f"svc{i}.example", RRType.CNAME, 600,
                        f"edge{i}.cdn.net")
        yield DnsRecord(ts, f"edge{i}.cdn.net", RRType.A, 60, _ip(i))


class TestChurnSoak:
    def test_memory_stays_bounded_under_cname_churn(self):
        steps = 10_000
        sink = io.StringIO()
        engine = AsyncEngine(_config(_CAP), sink=sink)
        samples = []

        def sampled():
            for n, record in enumerate(_churn_records(steps)):
                if n % 1000 == 999:
                    samples.append(engine.storage.total_entries())
                yield record

        # The newest churn window must still correlate after the soak:
        # oldest-first eviction costs only the stale tail.
        recent = range(steps - 20, steps)
        flows = [
            FlowRecord(ts=steps * 0.01, src_ip=_ip(i),
                       dst_ip="100.64.0.1", bytes_=10)
            for i in recent
        ]
        report = engine.run(sampled(), flows)

        assert report.dns_records == steps * 2
        assert report.evictions > 0
        # Bounded at the end AND at every live sample along the way.
        assert report.final_map_entries <= _BOUND
        assert len(samples) == (steps * 2) // 1000
        assert max(samples) <= _BOUND
        # Full correlation of the fresh window, whole chains included:
        # eviction is exact FIFO per tier.
        assert report.matched_flows == len(flows)
        assert report.chain_lengths.get(2, 0) == len(flows)
        # Every flow emits exactly one row (unmatched rows carry "-"),
        # and the matched-row count agrees with the report's counter.
        rows = [parse_result_line(line)
                for line in sink.getvalue().splitlines()]
        rows = [row for row in rows if row is not None]
        assert len(rows) == report.flow_records
        assert sum(1 for row in rows if row["chain"]) == report.matched_flows

    def test_uncapped_control_exceeds_the_bound(self):
        """The same churn without a cap blows through the envelope —
        proof the soak's workload actually exercises eviction."""
        engine = AsyncEngine(_config(0))
        report = engine.run(_churn_records(2000), [])
        assert report.evictions == 0
        assert report.final_map_entries > _BOUND

    def test_eviction_counter_reaches_the_report(self):
        """Evictions surface in the report, exactly the storage's count."""
        engine = AsyncEngine(_config(50))
        report = engine.run(_churn_records(1000), [])
        assert report.evictions > 0
        assert report.evictions == engine.storage.evictions()
