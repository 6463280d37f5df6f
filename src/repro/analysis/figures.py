"""Figure-data export and terminal rendering.

Each figure builder returns rows of plain tuples and can write them as
TSV — the format the paper's plotting scripts would consume — plus a
quick ASCII sparkline rendering for terminal inspection. The benches
assert on the numbers; this module makes them *visible*.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, TextIO, Tuple

from repro.core.metrics import EngineReport

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = None) -> str:
    """Render a numeric series as a unicode sparkline."""
    vals = list(values)
    if not vals:
        return ""
    if width is not None and len(vals) > width:
        # Downsample by averaging consecutive buckets.
        bucket = len(vals) / width
        vals = [
            sum(vals[int(i * bucket) : max(int(i * bucket) + 1, int((i + 1) * bucket))])
            / max(1, len(vals[int(i * bucket) : max(int(i * bucket) + 1, int((i + 1) * bucket))]))
            for i in range(width)
        ]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK[3] * len(vals)
    return "".join(_SPARK[min(7, int(8 * (v - lo) / span))] for v in vals)


def write_tsv(sink: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write rows as TSV with a ``#``-prefixed header; returns row count."""
    sink.write("# " + "\t".join(header) + "\n")
    count = 0
    for row in rows:
        sink.write("\t".join(str(x) for x in row) + "\n")
        count += 1
    return count


def figure2_rows(report: EngineReport) -> List[Tuple[float, float, float, int]]:
    """(t_start, cpu_percent, memory_gb, traffic_bytes) per sample."""
    return [
        (s.t_start, s.cpu_percent, s.memory_bytes / 2**30, s.traffic_bytes)
        for s in report.samples
    ]


def figure3_rows(
    reports: Dict[str, EngineReport]
) -> List[Tuple[str, float, float, float]]:
    """(variant, t_start, cpu_percent, memory_gb) long-format rows."""
    out: List[Tuple[str, float, float, float]] = []
    for variant, report in reports.items():
        for s in report.samples:
            out.append((variant, s.t_start, s.cpu_percent, s.memory_bytes / 2**30))
    return out


def figure7_rows(reports: Dict[str, EngineReport]) -> List[Tuple[str, float, float]]:
    """(variant, t_start, correlation_rate) long-format rows."""
    out: List[Tuple[str, float, float]] = []
    for variant, report in reports.items():
        for s in report.samples:
            if s.traffic_bytes:
                out.append((variant, s.t_start, s.correlation_rate))
    return out


def render_report_summary(report: EngineReport, title: str = "FlowDNS run") -> str:
    """A terminal dashboard for one engine run."""
    cpu = [s.cpu_percent for s in report.samples]
    mem = [s.memory_bytes / 2**30 for s in report.samples]
    traffic = [float(s.traffic_bytes) for s in report.samples]
    corr = [s.correlation_rate for s in report.samples if s.traffic_bytes]
    lines = [
        title,
        "=" * len(title),
        f"correlation rate : {report.correlation_rate:.1%}",
        f"stream loss      : {report.overall_loss_rate:.3%}",
        f"records          : {report.dns_records:,} DNS / {report.flow_records:,} flows",
    ]
    if cpu:
        lines.append(f"CPU %    {min(cpu):7.0f}..{max(cpu):<7.0f} {sparkline(cpu, 48)}")
    if mem:
        lines.append(f"mem GiB  {min(mem):7.1f}..{max(mem):<7.1f} {sparkline(mem, 48)}")
    if traffic:
        lines.append(f"traffic  {min(traffic)/1e9:7.1f}..{max(traffic)/1e9:<7.1f} GB/h "
                     f"{sparkline(traffic, 48)}")
    if corr:
        lines.append(f"corr     {min(corr):7.1%}..{max(corr):<7.1%} {sparkline(corr, 48)}")
    return "\n".join(lines)
