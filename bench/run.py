"""FlowDNS benchmark: five workloads, end to end and layer by layer.

One run of one workload, the form the benchmark driver calls::

    python3 bench/run.py --workload cdn_mix --seed 3 --seconds 10 --trace 0

prints every metric by name and unit, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

Without ``--trace`` it is the whole benchmark: ``--rounds`` untraced runs
of every workload, round-robin so drift hits all alike, then one traced
run each; medians, quartiles and every sample go to
``bench/out/results.json`` (compare two with ``bench/compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def report(workload, seed: int, run, traced: bool, table) -> None:
    """Print one run: every metric by name with its unit, then violations."""
    print(f"{workload.name} ({'traced' if traced else 'end to end'}, seed {seed}, "
          f"{run.failed} of {run.attempted} records failed)")
    for metric in table:
        if metric.name in run.metrics:
            print(f"  {metric.name:<34s} {run.metrics[metric.name]:>16.6g} {metric.unit}")
    for violation in run.violations:
        print(f"  VIOLATION: {violation}")
    sys.stdout.flush()


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(spec.WORKLOAD_BY_NAME),
                        help="run only this workload (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"how long one run measures (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run only: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--rounds", type=int, default=5,
                        help="untraced runs per workload in the whole benchmark (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="sanity pass: every workload tiny, 1 round; numbers not comparable")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no FlowDNS source tree at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure
    from summary import summarize

    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else spec.RUN_SECONDS)
    rounds = 1 if args.smoke or args.trace == 0 else args.rounds
    workloads = [spec.WORKLOAD_BY_NAME[name] for name in args.workload or ()] \
        or list(spec.WORKLOADS)
    if args.trace is not None and len(workloads) != 1:
        parser.error("--trace takes exactly one --workload")

    def out_dir(workload) -> str:
        return os.path.join(OUT, workload.name)

    printed = spec.END_TO_END + (spec.DELIVERED_SHARE,)
    rounds_of = {w.name: [] for w in workloads}
    traced_of = {}
    run = None
    if args.trace != 1:
        for _ in range(rounds):
            for workload in workloads:
                run = measure.measure(workload, args.seed, seconds, args.smoke, out_dir(workload))
                report(workload, args.seed, run, False, printed)
                rounds_of[workload.name].append(run)
    if args.trace != 0:
        for workload in workloads:
            run = measure.trace(workload, args.seed, seconds, args.smoke, out_dir(workload))
            report(workload, args.seed, run, True, spec.PER_LAYER)
            traced_of[workload.name] = run

    results = {
        "provenance": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "child_pythonhashseed": spec.CHILD_HASH_SEED,
            "smoke": args.smoke,
            "seconds": seconds,
            "rounds": rounds,
        },
        # workload -> metric -> {n, median, q1, q3, samples}: one sample per round.
        "end_to_end": {},
        # workload -> round -> metric -> the per-repetition values behind that round.
        "repetitions": {name: [r.samples for r in runs] for name, runs in rounds_of.items()},
        "per_layer": {name: r.metrics for name, r in traced_of.items()},
        "violations": {},
    }
    for workload in workloads:
        runs = rounds_of[workload.name]
        summaries = {m: summarize([r.metrics[m] for r in runs])
                     for m in (runs[0].metrics if runs else ())}
        traced = traced_of.get(workload.name)
        results["end_to_end"][workload.name] = summaries
        violations = [v for r in runs + [traced] if r is not None for v in r.violations]
        if violations:
            results["violations"][workload.name] = violations

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    print(f"wrote {os.path.join(OUT, 'results.json')}")

    if args.trace is not None:
        wanted = spec.PER_LAYER if args.trace else spec.CONTRACT_END_TO_END
        print(json.dumps({
            "correct": not run.violations,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m.name: {"value": run.metrics[m.name], "unit": m.unit}
                        for m in wanted},
        }))
    return 1 if results["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
