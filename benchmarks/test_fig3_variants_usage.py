"""Figure 3: CPU and memory usage for the benchmark variants over a day.

Paper anchors:
* No Clear-Up's memory "grows steadily over the day and can easily hit
  the memory limit";
* No Rotation "uses much less memory compared to other benchmarks";
* No Long Hashmaps "save neither a significant amount of memory nor CPU";
* No Split "neither improves nor degrades the memory usage but decreases
  the CPU usage significantly".
"""

from conftest import print_rows

from repro.core.variants import Variant


def test_fig3_memory_orderings(variant_runs):
    reports = variant_runs
    final_mem = {v: r.samples[-1].memory_bytes / 2**30 for v, r in reports.items()}
    mean_mem = {v: r.mean_memory_gb for v, r in reports.items()}
    rows = [
        f"{v.value:<14s} final={final_mem[v]:6.1f} GiB  mean={mean_mem[v]:6.1f} GiB"
        for v in reports
    ]
    print_rows("Figure 3b: memory by variant (half simulated day)", rows)

    # No Clear-Up grows beyond Main and keeps growing.
    assert final_mem[Variant.NO_CLEAR_UP] > 1.15 * final_mem[Variant.MAIN]
    ncu = reports[Variant.NO_CLEAR_UP].samples
    first_half = sum(s.memory_bytes for s in ncu[: len(ncu) // 2]) / (len(ncu) // 2)
    second_half = sum(s.memory_bytes for s in ncu[len(ncu) // 2 :]) / (len(ncu) - len(ncu) // 2)
    assert second_half > first_half  # steady growth

    # No Rotation uses the least memory of all variants.
    assert final_mem[Variant.NO_ROTATION] == min(final_mem.values())

    # No Long ≈ Main (no significant memory saving).
    assert abs(final_mem[Variant.NO_LONG] - final_mem[Variant.MAIN]) < 0.2 * final_mem[Variant.MAIN]

    # No Split ≈ Main on memory.
    assert abs(final_mem[Variant.NO_SPLIT] - final_mem[Variant.MAIN]) < 0.05 * final_mem[Variant.MAIN]


def test_fig3_cpu_orderings(variant_runs):
    reports = variant_runs
    cpu = {v: r.mean_cpu_percent for v, r in reports.items()}
    rows = [f"{v.value:<14s} mean CPU = {cpu[v]:7.0f} %" for v in reports]
    print_rows("Figure 3a: CPU by variant (half simulated day)", rows)

    # No Split decreases CPU significantly; everything else ≈ Main.
    assert cpu[Variant.NO_SPLIT] < 0.97 * cpu[Variant.MAIN]
    for variant in (Variant.NO_CLEAR_UP, Variant.NO_ROTATION, Variant.NO_LONG):
        assert abs(cpu[variant] - cpu[Variant.MAIN]) < 0.05 * cpu[Variant.MAIN]
