import statistics

import json

import compare
from compare import verdict
from spec import Metric
from summary import summarize

RATE = Metric("rate", "1/s", "higher", 0.10)
COST = Metric("cost", "s", "lower", 0.10)
FAILED = Metric("failed", "fraction", "lower", 0.001, absolute=True)


def test_summarize_matches_statistics_quantiles():
    samples = [10.0, 12.0, 11.0, 30.0, 9.0]
    out = summarize(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    assert (out["n"], out["median"], out["q1"], out["q3"]) == (5, 11.0, q1, q3)
    assert out["samples"] == samples


def test_single_sample_is_its_own_quartiles():
    out = summarize([4.2])
    assert (out["median"], out["q1"], out["q3"]) == (4.2, 4.2, 4.2)


def _tight(median):
    return summarize([median * 0.999, median, median * 1.001])


def test_verdicts_follow_direction_and_bound():
    assert verdict(RATE, _tight(100.0), _tight(95.0)) == "same"
    assert verdict(RATE, _tight(100.0), _tight(89.0)) == "worse"
    assert verdict(RATE, _tight(100.0), _tight(111.0)) == "better"
    assert verdict(COST, _tight(10.0), _tight(11.5)) == "worse"
    assert verdict(COST, _tight(10.0), _tight(8.5)) == "better"


def test_wide_quartiles_are_unresolved_not_same():
    noisy = summarize([80.0, 100.0, 120.0, 90.0, 115.0])
    assert verdict(RATE, noisy, _tight(100.0)) == "unresolved"
    assert verdict(RATE, _tight(100.0), noisy) == "unresolved"


def test_failed_share_bound_is_absolute():
    zero = summarize([0.0, 0.0, 0.0])
    assert verdict(FAILED, zero, summarize([0.0005] * 3)) == "same"
    assert verdict(FAILED, zero, summarize([0.002] * 3)) == "worse"


def _results(tmp_path, name, seed, median):
    path = tmp_path / name
    path.write_text(json.dumps({
        "provenance": {"seed": seed, "seconds": 10, "smoke": False},
        "end_to_end": {"cdn_mix": {"match_share": summarize([median] * 3)}},
    }))
    return str(path)


def test_match_share_drop_is_worse_and_other_seeds_are_refused(tmp_path, capsys):
    old = _results(tmp_path, "old.json", 11, 0.97)
    assert compare.main([old, _results(tmp_path, "same.json", 11, 0.9695)]) == 0
    assert compare.main([old, _results(tmp_path, "drop.json", 11, 0.78)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([old, _results(tmp_path, "seed.json", 12, 0.97)]) == 2
    assert "seed" in capsys.readouterr().err
