"""Compare two ``results.json`` files: ``python bench/compare.py OLD.json NEW.json``.

One row per workload x end-to-end metric, judged with the bound the
benchmark fixed for that metric:

* ``unresolved`` — either side's quartile spread is wider than the bound,
  so the runs cannot tell a change of that size from noise;
* ``worse`` / ``better`` — NEW's median is beyond the bound on that side;
* ``same`` — within it.

Exits non-zero if any row is ``worse``. Two files made with different
seeds, run lengths or sizes are refused: their numbers are not about the
same inputs (``match_share`` alone moves by 0.1 from one seed to the next).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Iterator, Tuple

from spec import END_TO_END, Metric


def verdict(metric: Metric, old: Dict[str, object], new: Dict[str, object]) -> str:
    """Judge one metric's NEW summary against its OLD one."""
    allowed = metric.bound if metric.absolute else metric.bound * abs(old["median"])
    if any(side["q3"] - side["q1"] > allowed for side in (old, new)):
        return "unresolved"
    gain = new["median"] - old["median"]
    if metric.better == "lower":
        gain = -gain
    if gain < -allowed:
        return "worse"
    if gain > allowed:
        return "better"
    return "same"


def compare(old: Dict[str, object], new: Dict[str, object]) -> Iterator[Tuple[str, Metric, dict, dict, str]]:
    """Rows for every workload x end-to-end metric both files have."""
    for workload, old_metrics in old["end_to_end"].items():
        new_metrics = new["end_to_end"].get(workload, {})
        for metric in END_TO_END:
            if metric.name in old_metrics and metric.name in new_metrics:
                a, b = old_metrics[metric.name], new_metrics[metric.name]
                yield workload, metric, a, b, verdict(metric, a, b)


#: Provenance fields both files must agree on.
SAME_INPUTS = ("seed", "seconds", "smoke")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        old = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        new = json.load(handle)
    for key in SAME_INPUTS:
        a, b = old["provenance"].get(key), new["provenance"].get(key)
        if a != b:
            print(f"compare: {key} is {a!r} in {argv[0]} and {b!r} in {argv[1]}; "
                  "not comparable", file=sys.stderr)
            return 2
    worse = 0
    print(f"{'workload':<14s} {'metric':<24s} {'old':>12s} {'new':>12s} {'bound':>8s}  verdict")
    for workload, metric, a, b, result in compare(old, new):
        bound = f"{metric.bound:g}" if metric.absolute else f"{metric.bound:.0%}"
        print(f"{workload:<14s} {metric.name:<24s} {a['median']:>12.6g} "
              f"{b['median']:>12.6g} {bound:>8s}  {result}")
        worse += result == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
