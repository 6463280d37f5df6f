"""Write workers: correlated results to disk (Figure 1's Write stage).

Output is line-oriented TSV: one row per flow with the resolved service
name (or ``-`` for uncorrelated flows) plus the discovered chain. The
writer tracks the delay between a flow's timestamp and the moment its row
is written — the paper reports "results are written to disk by a maximum
delay of 45 seconds" as a headline property.

Rows are built per batch, not per flow: :func:`format_batch` formats
each distinct timestamp and each distinct chain's tail once, then joins
every row from those fragments and the batch's columns in one
comprehension.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional, TextIO

from repro.core.lookup import CorrelationBatch

#: Placeholder the output format uses for NULL results.
NULL_SERVICE = "-"

HEADER = "# ts\tsrc_ip\tdst_ip\tproto\tpackets\tbytes\tservice\tchain\n"


def format_batch(batch: CorrelationBatch) -> List[str]:
    """Output rows for one correlation batch, straight from the columns.

    The address columns already carry the canonical text
    ``str(flow.src_ip)`` would produce, so no ``CorrelationResult``/
    ``FlowRecord``/``ipaddress`` object is built. A batch repeats few
    timestamps and fewer chains, so each distinct ``ts`` is formatted
    once and each distinct chain's ``\\tservice\\tchain\\n`` tail is
    built once; a row is then one f-string over those fragments.
    """
    flows = batch.flows
    chains = batch.chains
    ts = flows.ts
    stamp_of = {t: f"{t:.3f}" for t in dict.fromkeys(ts)}
    stamps = list(map(stamp_of.__getitem__, ts))
    if 0.0 in stamp_of:
        # 0.0 and -0.0 are one key but print differently.
        for i, t in enumerate(ts):
            if t == 0.0:
                stamps[i] = f"{t:.3f}"
    tail_of = dict.fromkeys(chains)
    for chain in tail_of:
        if chain:
            tail_of[chain] = f"\t{chain[-1]}\t{'>'.join(chain)}\n"
        else:
            tail_of[chain] = f"\t{NULL_SERVICE}\t{NULL_SERVICE}\n"
    return [
        f"{stamp}\t{src}\t{dst}\t{proto}\t{packets}\t{bytes_}{tail}"
        for stamp, src, dst, proto, packets, bytes_, tail in zip(
            stamps,
            flows.src_ip_text,
            flows.dst_ip_text,
            flows.protocol,
            flows.packets,
            flows.bytes_,
            map(tail_of.__getitem__, chains),
        )
    ]


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
