"""Write workers: correlated results to disk (Figure 1's Write stage).

Output is line-oriented TSV: one row per flow with the resolved service
name (or ``-`` for uncorrelated flows) plus the discovered chain. The
writer tracks the delay between a flow's timestamp and the moment its row
is written — the paper reports "results are written to disk by a maximum
delay of 45 seconds" as a headline property.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional, TextIO

from repro.core.lookup import CorrelationBatch, CorrelationResult

#: Placeholder the output format uses for NULL results.
NULL_SERVICE = "-"

HEADER = "# ts\tsrc_ip\tdst_ip\tproto\tpackets\tbytes\tservice\tchain\n"


def format_result(result: CorrelationResult) -> str:
    """One output row for a correlation result."""
    flow = result.flow
    service = result.service if result.matched else NULL_SERVICE
    chain = ">".join(result.chain) if result.matched else NULL_SERVICE
    return (
        f"{flow.ts:.3f}\t{flow.src_ip}\t{flow.dst_ip}\t{flow.protocol}\t"
        f"{flow.packets}\t{flow.bytes_}\t{service}\t{chain}\n"
    )


def format_batch(batch: CorrelationBatch) -> List[str]:
    """Output rows for one correlation batch, straight from the columns.

    Byte-identical to mapping :func:`format_result` over the batch's
    materialised results (the address columns carry the same canonical
    text ``str(flow.src_ip)`` would produce), without building a single
    ``CorrelationResult``/``FlowRecord``/``ipaddress`` object — this is
    the engines' columnar write path.
    """
    flows = batch.flows
    ts, src, dst = flows.ts, flows.src_ip_text, flows.dst_ip_text
    proto, packets, bytes_ = flows.protocol, flows.packets, flows.bytes_
    rows: List[str] = []
    append = rows.append
    for i, chain in enumerate(batch.chains):
        if chain:
            service = chain[-1]
            chain_text = ">".join(chain)
        else:
            service = chain_text = NULL_SERVICE
        append(
            f"{ts[i]:.3f}\t{src[i]}\t{dst[i]}\t{proto[i]}\t"
            f"{packets[i]}\t{bytes_[i]}\t{service}\t{chain_text}\n"
        )
    return rows


def parse_result_line(line: str) -> Optional[dict]:
    """Parse one output row back into a dict (None for comments/blank).

    The BGP and abuse analyses consume FlowDNS output files; this is the
    single parser they share.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 8:
        raise ValueError(f"malformed FlowDNS output row: {line!r}")
    ts, src_ip, dst_ip, proto, packets, bytes_, service, chain = parts
    return {
        "ts": float(ts),
        "src_ip": src_ip,
        "dst_ip": dst_ip,
        "protocol": int(proto),
        "packets": int(packets),
        "bytes": int(bytes_),
        "service": None if service == NULL_SERVICE else service,
        "chain": tuple() if chain == NULL_SERVICE else tuple(chain.split(">")),
    }


class DiscardSink(io.TextIOBase):
    """A write-only sink that drops everything (for week-long simulations
    where retaining output rows would dominate memory)."""

    def write(self, text: str) -> int:  # noqa: D102 - io.TextIOBase API
        return len(text)

    def writable(self) -> bool:
        return True


@dataclass
class WriteStats:
    rows: int = 0
    matched_rows: int = 0
    max_delay: float = 0.0


class WriteWorker:
    """Serialises correlation batches to a text sink, tracking write delay."""

    def __init__(self, sink: Optional[TextIO] = None, write_header: bool = True):
        self.sink = sink if sink is not None else io.StringIO()
        self.stats = WriteStats()
        if write_header:
            self.sink.write(HEADER)

    def write_batch(self, batch: CorrelationBatch, delay: Optional[float] = None) -> None:
        """Write one correlation batch's rows without materialising results.

        ``delay`` is the batch's largest write delay: write time minus
        the enqueue stamp (async engine) or minus the first row's ``ts``
        (simulation, whose rows are in ``ts`` order).
        """
        rows = format_batch(batch)
        self.sink.write("".join(rows))
        self.stats.rows += len(rows)
        self.stats.matched_rows += batch.matched
        if delay is not None:
            delay = max(0.0, delay)
            self.stats.max_delay = max(self.stats.max_delay, delay)
