"""Accounting invariants over :class:`~repro.core.metrics.EngineReport`.

The chaos contract: an engine fed hostile input may lose or reject data,
but every lost or mangled item must land in a counter and every loss
must be visible in ``report.warnings`` — never a hang, a crash, or a
silently wrong row. This module is the checker the chaos differential
suite (and the clean-path baseline) runs over every report.

Conservation semantics, as the engines actually account:

* per source, ``received == accepted + dropped`` — what arrived off the
  wire either reached the pipeline or was dropped by a full bounded
  buffer. ``malformed`` is charged *orthogonally*: for UDP/replay
  sources it counts decode failures among **accepted** items (decode
  happens in the lane, off the hot callback); for TCP DNS it counts
  framing-level events (a truncated tail, a corrupt prefix, an empty
  frame) and can exceed ``received``, which counts only cleanly framed
  messages;
* ``matched_flows == sum(chain_lengths)`` — every match records its
  CNAME chain length exactly once;
* ``matched_flows <= flow_records`` and ``correlated_bytes <=
  total_bytes`` — you cannot match more than you decoded;
* output rows ``== flow_records`` — every decoded flow produces exactly
  one TSV row (matched or NULL-service);
* ``evictions <= dns_records + restored_entries`` — an eviction
  happens only at an insert, and inserts come from ingested or
  restored records;
* loss visibility — any dropped item or non-zero ``overall_loss_rate``
  must be accompanied by at least one warning.

:func:`call_with_deadline` is the watchdog the chaos suite wraps every
engine run in: a hang becomes a :class:`WatchdogTimeout` failure with
the offending label, not a CI-level timeout.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.core.metrics import EngineReport

#: EngineReport counters that must never go negative.
_NON_NEGATIVE_FIELDS = (
    "total_bytes",
    "correlated_bytes",
    "dns_records",
    "flow_records",
    "matched_flows",
    "final_map_entries",
    "overwrites",
    "evictions",
    "worker_restarts",
    "snapshots_written",
    "restored_entries",
    "dns_invalid",
    "flow_decode_errors",
)

#: IngestStats counters that must never go negative.
_INGEST_FIELDS = ("received", "accepted", "dropped", "malformed", "bytes_in")


def check_report(report: EngineReport, rows: Optional[int] = None) -> List[str]:
    """Return every violated invariant as a human-readable string.

    ``rows`` (optional) is the number of data rows the run's sink
    received; when given, it must equal ``report.flow_records``. An
    empty list means the report is conservation-clean.
    """
    violations: List[str] = []

    for name in _NON_NEGATIVE_FIELDS:
        value = getattr(report, name)
        if value < 0:
            violations.append(f"{name} is negative: {value}")

    for source_name, stats in report.ingest.items():
        for counter in _INGEST_FIELDS:
            value = getattr(stats, counter)
            if value < 0:
                violations.append(
                    f"ingest[{source_name}].{counter} is negative: {value}"
                )
        if stats.received != stats.accepted + stats.dropped:
            violations.append(
                f"ingest[{source_name}] conservation broken: received="
                f"{stats.received} != accepted={stats.accepted} + "
                f"dropped={stats.dropped}"
            )

    chain_total = sum(report.chain_lengths.values())
    if chain_total != report.matched_flows:
        violations.append(
            f"chain-length histogram sums to {chain_total}, but "
            f"matched_flows={report.matched_flows}"
        )
    if any(count < 0 for count in report.chain_lengths.values()):
        violations.append("chain_lengths contains a negative count")

    if report.matched_flows > report.flow_records:
        violations.append(
            f"matched_flows={report.matched_flows} exceeds "
            f"flow_records={report.flow_records}"
        )
    if report.correlated_bytes > report.total_bytes:
        violations.append(
            f"correlated_bytes={report.correlated_bytes} exceeds "
            f"total_bytes={report.total_bytes}"
        )
    if not 0.0 <= report.overall_loss_rate <= 1.0:
        violations.append(
            f"overall_loss_rate out of [0, 1]: {report.overall_loss_rate}"
        )

    insert_budget = report.dns_records + report.restored_entries
    if report.evictions > insert_budget:
        violations.append(
            f"evictions={report.evictions} exceeds possible inserts "
            f"(dns_records={report.dns_records} + "
            f"restored_entries={report.restored_entries})"
        )

    if rows is not None and rows != report.flow_records:
        violations.append(
            f"sink carries {rows} data rows, but flow_records="
            f"{report.flow_records} (every decoded flow must produce "
            f"exactly one row)"
        )

    # Loss visibility: counters saying "we lost data" must be matched by
    # a warning an operator would actually see.
    dropped_total = sum(stats.dropped for stats in report.ingest.values())
    if dropped_total > 0 and not report.warnings:
        violations.append(
            f"{dropped_total} items dropped across ingest sources but "
            f"report.warnings is empty (silent loss)"
        )
    if report.overall_loss_rate > 0 and not report.warnings:
        violations.append(
            f"overall_loss_rate={report.overall_loss_rate:.4f} but "
            f"report.warnings is empty (silent loss)"
        )

    return violations


def assert_invariants(report: EngineReport, rows: Optional[int] = None) -> None:
    """Raise :class:`AssertionError` listing every violated invariant."""
    violations = check_report(report, rows=rows)
    if violations:
        raise AssertionError(
            f"{len(violations)} accounting invariant(s) violated "
            f"(variant={report.variant_name!r}):\n  - "
            + "\n  - ".join(violations)
        )


class WatchdogTimeout(RuntimeError):
    """A watchdogged call exceeded its deadline (a hang, surfaced)."""


def call_with_deadline(fn: Callable, timeout: float, label: str = "call"):
    """Run ``fn()`` under a hard deadline; a hang fails, never blocks CI.

    The call runs in a daemon thread; if it does not finish within
    ``timeout`` seconds, :class:`WatchdogTimeout` is raised and the
    daemon thread is abandoned (it cannot block interpreter exit). An
    exception inside ``fn`` propagates unchanged.
    """
    outcome: dict = {}
    done = threading.Event()

    def body() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            outcome["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(target=body, daemon=True, name=f"watchdog:{label}")
    worker.start()
    if not done.wait(timeout):
        raise WatchdogTimeout(
            f"{label} still running after {timeout:.1f}s watchdog deadline"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")
