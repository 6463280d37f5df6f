"""Integration tests: workload → engine → analysis, and headline anchors.

These run small simulated deployments and assert the paper's *qualitative*
anchors (orderings, directions). The benchmark harness asserts the
quantitative ones on longer horizons.
"""

import pytest

from repro.analysis import (
    ResultRecorder,
    ServiceBytesCollector,
    estimate_coverage,
    names_per_ip,
    run_variant,
)
from repro.analysis.invalid_domains import analyze_invalid_domains
from repro.analysis.spamdbl import DomainBlockList, analyze_abuse_traffic
from repro.bgp.correlate import correlate_with_bgp
from repro.bgp.rib import Rib
from repro.core.async_engine import AsyncEngine
from repro.core.config import FlowDNSConfig
from repro.core.simulation import SimulationEngine
from repro.core.variants import Variant
from repro.workloads.isp import large_isp
from repro.workloads.pcaplike import two_site_capture


@pytest.fixture(scope="module")
def short_run():
    """One 3-hour large-ISP replay shared by several assertions."""
    workload = large_isp(seed=13, duration=3 * 3600.0, n_benign=600)
    collector = ServiceBytesCollector()
    run = run_variant(workload, Variant.MAIN, sample_interval=1800.0, on_result=collector)
    return workload, run.report, collector


class TestHeadlineBehaviour:
    def test_correlation_rate_in_paper_band(self, short_run):
        _w, report, _c = short_run
        assert 0.76 <= report.correlation_rate <= 0.88

    def test_no_stream_loss(self, short_run):
        _w, report, _c = short_run
        assert report.overall_loss_rate < 0.001

    def test_write_delay_under_45s(self, short_run):
        _w, report, _c = short_run
        assert report.max_write_delay <= 45.0

    def test_chain_lengths_bounded_by_loop_limit(self, short_run):
        _w, report, _c = short_run
        # chain = 1 IP-NAME hit + up to 6 CNAME hops (+1 defensive slack).
        assert max(report.chain_lengths) <= 1 + FlowDNSConfig().cname_loop_limit

    def test_most_chains_short(self, short_run):
        _w, report, _c = short_run
        total = sum(report.chain_lengths.values())
        within_6 = sum(c for length, c in report.chain_lengths.items() if length <= 6)
        assert within_6 / total > 0.99

    def test_streaming_service_dominates_bytes(self, short_run):
        _w, _report, collector = short_run
        top = max(collector.bytes_by_service, key=collector.bytes_by_service.get)
        assert top in ("s1-streaming.tv", "s2-streaming.tv")


class TestVariantOrdering:
    """Figure 7's ordering on a shared 4-hour workload."""

    @pytest.fixture(scope="class")
    def rates(self, record_workload):
        workload = record_workload(large_isp(seed=21, duration=4 * 3600.0, n_benign=600))
        return {
            variant: run_variant(workload, variant).report
            for variant in (Variant.MAIN, Variant.NO_CLEAR_UP, Variant.NO_ROTATION, Variant.NO_LONG)
        }

    def test_no_clear_up_at_least_main(self, rates):
        assert rates[Variant.NO_CLEAR_UP].correlation_rate >= rates[Variant.MAIN].correlation_rate - 0.002

    def test_main_beats_no_rotation(self, rates):
        assert rates[Variant.MAIN].correlation_rate > rates[Variant.NO_ROTATION].correlation_rate

    def test_main_beats_no_long(self, rates):
        assert rates[Variant.MAIN].correlation_rate >= rates[Variant.NO_LONG].correlation_rate

    def test_no_rotation_lowest(self, rates):
        others = [rates[v].correlation_rate for v in (Variant.MAIN, Variant.NO_CLEAR_UP, Variant.NO_LONG)]
        assert rates[Variant.NO_ROTATION].correlation_rate <= min(others) + 1e-9

    def test_memory_orderings(self, rates):
        final_mem = {v: r.samples[-1].memory_bytes for v, r in rates.items()}
        assert final_mem[Variant.NO_CLEAR_UP] > final_mem[Variant.MAIN]
        assert final_mem[Variant.NO_ROTATION] < final_mem[Variant.MAIN]


class TestAccuracyExperiment:
    """Section 4: 100 % for distinct IPs, 50 % for a shared IP."""

    def _run(self, same_ip):
        capture = two_site_capture(same_ip=same_ip, seed=5)
        recorder = ResultRecorder()
        engine = SimulationEngine(FlowDNSConfig(), on_result=recorder)
        engine.run(capture.dns_records, capture.flow_records)
        predicted = [r.service or "" for r in recorder.results]
        return capture.accuracy_of(predicted)

    def test_different_ips_perfect(self):
        assert self._run(same_ip=False) == 1.0

    def test_same_ip_half(self):
        accuracy = self._run(same_ip=True)
        assert 0.3 < accuracy < 0.7  # byte-weighted ≈ 50 %


class TestCoverageIntegration:
    def test_coverage_near_95pct(self):
        workload = large_isp(seed=17, duration=3600.0, n_benign=300)
        report = estimate_coverage(workload.flow_records())
        assert 0.90 <= report.coverage <= 0.99
        assert report.dns_flows > 100


class TestNamesPerIpIntegration:
    def test_single_name_fraction_near_88pct(self):
        workload = large_isp(seed=19, duration=2400.0, n_benign=2000)
        report = names_per_ip(workload.dns_records(), window=300.0, t_start=0.0)
        assert 0.80 <= report.single_name_fraction <= 0.96

    def test_multi_ip_names_near_35pct(self):
        workload = large_isp(seed=19, duration=2400.0, n_benign=2000)
        report = names_per_ip(workload.dns_records(), window=300.0, t_start=0.0)
        assert 0.25 <= report.multi_ip_name_fraction <= 0.48


class TestAbuseIntegration:
    def test_abuse_traffic_share_small_and_nonzero(self, short_run):
        workload, _report, collector = short_run
        dbl = DomainBlockList.from_categories(workload.universe.abuse.by_category)
        report = analyze_abuse_traffic(collector.bytes_by_service, dbl)
        assert report.suspicious_names > 0
        assert 0.0 < report.abuse_byte_share() < 0.02

    def test_invalid_domains_found(self, short_run):
        workload = large_isp(seed=23, duration=3600.0, n_benign=600)
        recorder = ResultRecorder()
        run_variant(workload, Variant.MAIN, on_result=recorder)
        report = analyze_invalid_domains(recorder.results)
        assert report.invalid_names > 0
        assert report.underscore_share > 0.5
        assert 0.0 < report.invalid_byte_share < 0.02


class TestBgpIntegration:
    def test_s1_single_as_s2_two_ases(self):
        workload = large_isp(seed=29, duration=3 * 3600.0, n_benign=400)
        recorder = ResultRecorder()
        run_variant(workload, Variant.MAIN, on_result=recorder)
        rib = Rib.from_entries(workload.hosting.rib_entries())

        def matcher(resolved, target):
            return resolved == target

        series = correlate_with_bgp(
            recorder.results, rib, ["s1-streaming.tv", "s2-streaming.tv"],
            service_matcher=matcher,
        )
        s1 = series["s1-streaming.tv"].dominant_asns(coverage=0.95)
        s2 = series["s2-streaming.tv"].dominant_asns(coverage=0.95)
        assert len(s1) == 1
        assert len(s2) == 2


class TestAsyncMatchesSimulation:
    def test_same_correlation_on_same_input(self, tiny_workload):
        dns = list(tiny_workload.dns_records())
        flows = list(tiny_workload.flow_records())
        sim = SimulationEngine(FlowDNSConfig()).run(iter(dns), iter(flows))

        live = AsyncEngine(FlowDNSConfig()).run(dns, flows)
        # The simulation interleaves DNS and flows by timestamp, the live
        # engine stores all DNS first: totals match, rates differ only at
        # the margin.
        assert live.flow_records == sim.flow_records
        assert abs(live.correlation_rate - sim.correlation_rate) < 0.05
