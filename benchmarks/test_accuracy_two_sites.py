"""Section 4 "Accuracy": the two-website experiment.

Paper anchors: "In the first scenario, we observe that all the traffic
is correlated correctly, while in the second scenario, all the traffic
is correlated to the second domain name. In other words, we had an
accuracy of 100% and 50% in the first and second scenarios."
"""

from conftest import print_rows

from repro.analysis import ResultRecorder, comparison_row
from repro.core.config import FlowDNSConfig
from repro.core.simulation import SimulationEngine
from repro.workloads.pcaplike import two_site_capture


def _run_scenario(same_ip: bool):
    capture = two_site_capture(same_ip=same_ip, seed=5, flows_per_site=50)
    recorder = ResultRecorder()
    engine = SimulationEngine(FlowDNSConfig(), on_result=recorder)
    engine.run(capture.dns_records, capture.flow_records)
    predicted = [r.service or "" for r in recorder.results]
    return capture, predicted


def test_scenario1_different_ips():
    capture, predicted = _run_scenario(False)
    accuracy = capture.accuracy_of(predicted)
    print_rows(
        "Accuracy scenario 1 (different IPs)",
        [comparison_row("byte accuracy", 1.0, accuracy)],
    )
    assert accuracy == 1.0


def test_scenario2_same_ip():
    capture, predicted = _run_scenario(True)
    accuracy = capture.accuracy_of(predicted)
    # All traffic is attributed to the *second* site (its record overwrote
    # the first), so measured accuracy is site B's byte share ≈ 50 %.
    attributed = set(predicted)
    print_rows(
        "Accuracy scenario 2 (same IP)",
        [
            comparison_row("byte accuracy", 0.5, accuracy),
            f"all traffic attributed to: {attributed}",
        ],
    )
    assert attributed == {capture.site_b}
    assert 0.35 < accuracy < 0.65
