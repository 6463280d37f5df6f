import json
import os

import spec


def test_benchmark_json_is_the_spec_written_out():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == spec.contract()


def test_contract_limits():
    contract = spec.contract()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in contract["end_to_end"])
    assert len(contract["per_layer"]) <= 128


def test_the_driver_runs_the_gated_workloads_and_run_py_all_five():
    assert [w["name"] for w in spec.contract()["workloads"]] == list(spec.GATED)
    assert set(spec.GATED) < set(spec.WORKLOAD_BY_NAME) and len(spec.WORKLOADS) == 5
    assert all(spec.WORKLOAD_BY_NAME[name].driver == "replay" for name in spec.GATED)
    # 4 + 22 runs per workload inside the driver's 3420 s, at the window, the
    # ~13 s a run spends outside it, and a machine a fifth slower than that.
    runs = 4 + 22 * len(spec.GATED)
    assert runs * (spec.RUN_SECONDS + 13) * 1.2 <= 3420


def test_smoke_shrinks_one_field_and_keeps_the_regime():
    sized = spec.capture_params("dns_heavy", seed=5)
    smoke = spec.capture_params("dns_heavy", seed=5, smoke=True)
    assert smoke["duration"] == sized["duration"] == 9000.0
    assert smoke["base_rate"] == sized["base_rate"] * spec.SMOKE_SHARE
    assert spec.capture_params("cdn_mix", 5, smoke=True)["duration"] < 2.0


def test_match_share_is_sharp_between_result_files_and_wide_in_the_contract():
    by_name = {m.name: m for m in spec.END_TO_END}
    assert (by_name["match_share"].bound, by_name["match_share"].absolute) == (0.002, True)
    contract = {m.name: m for m in spec.CONTRACT_END_TO_END}
    assert contract["match_share"].bound == 0.20 and not contract["match_share"].absolute
    assert "failed_share" not in contract and "overload_records_per_s" not in contract
