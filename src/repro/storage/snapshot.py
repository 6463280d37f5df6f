"""Storage snapshots: persist and restore FlowDNS's DNS state.

Operationally, restarting FlowDNS starts with empty hashmaps and
correlation stays degraded until the maps re-fill (up to a clear-up
interval). Snapshotting the storage periodically and restoring on start
removes that gap. The format is a versioned JSON document covering the
Active/Inactive/Long tiers of both banks, including the clear-up
bookkeeping, so a restored store rotates on schedule.

Two layers:

* :func:`dump_storage` / :func:`load_storage` — stream-level, used by
  tests and callers that manage their own files. Restore is
  **all-or-nothing**: the whole document is validated against the target
  storage before any map is touched, so a mismatched or truncated
  snapshot can never leave the store half-wiped.
* :func:`save_snapshot` / :func:`load_snapshot` — path-level, crash-safe.
  ``save_snapshot`` writes to a temp file in the same directory, fsyncs,
  and atomically renames over the target: a crash (or full disk) mid-write
  leaves the previous snapshot intact, never a truncated one.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, TextIO, Tuple

from repro.storage.rotating import StoreBank
from repro.util.errors import ParseError

SNAPSHOT_VERSION = 1

_TIER_NAMES = ("active", "inactive", "long")


def _bank_state(bank: StoreBank) -> Dict:
    return {
        "clear_up_interval": bank.clear_up_interval,
        "num_splits": bank.num_splits,
        "last_clear_ts": bank._last_clear_ts,
        "tiers": {
            "active": [m.snapshot() for m in bank._active],
            "inactive": [m.snapshot() for m in bank._inactive],
            "long": [m.snapshot() for m in bank._long],
        },
    }


def _check_bank_state(bank: StoreBank, state: Dict, bank_name: str) -> None:
    """Validate one bank's state against its target — no mutation here."""
    if not isinstance(state, dict):
        raise ParseError(f"snapshot bank {bank_name!r} is not an object")
    if state.get("num_splits") != bank.num_splits:
        raise ParseError(
            f"snapshot bank {bank_name!r} has {state.get('num_splits')} "
            f"splits, bank has {bank.num_splits}"
        )
    if state.get("clear_up_interval") != bank.clear_up_interval:
        raise ParseError(
            f"snapshot bank {bank_name!r} was taken with clear_up_interval="
            f"{state.get('clear_up_interval')!r}, bank has "
            f"{bank.clear_up_interval!r}"
        )
    tiers = state.get("tiers")
    if not isinstance(tiers, dict):
        raise ParseError(f"snapshot bank {bank_name!r} has no tiers")
    for tier_name in _TIER_NAMES:
        tier_state = tiers.get(tier_name)
        if not isinstance(tier_state, list) or len(tier_state) != bank.num_splits:
            raise ParseError(
                f"snapshot bank {bank_name!r} tier {tier_name!r} has wrong "
                f"split count"
            )
        for entries in tier_state:
            if not isinstance(entries, dict):
                raise ParseError(
                    f"snapshot bank {bank_name!r} tier {tier_name!r} holds a "
                    f"non-object split"
                )


def _apply_bank_state(bank: StoreBank, state: Dict) -> None:
    """Overwrite a pre-validated bank's maps with the snapshot contents."""
    bank._last_clear_ts = state["last_clear_ts"]
    for tier_name, maps in (
        ("active", bank._active),
        ("inactive", bank._inactive),
        ("long", bank._long),
    ):
        for cmap, entries in zip(maps, state["tiers"][tier_name]):
            cmap.clear()
            for key, value in entries.items():
                cmap.set(key, value)


def dump_storage(storage, sink: TextIO) -> int:
    """Write a JSON snapshot of a DnsStorage's rotating banks.

    Returns the number of entries written. Exact-TTL storages are not
    snapshot-able (their entries expire by wall time; a restore would
    resurrect stale records), and raise :class:`ParseError`.
    """
    if storage.ip_bank is None:
        raise ParseError("exact-TTL storage cannot be snapshotted")
    document = {
        "version": SNAPSHOT_VERSION,
        "saved_at": time.time(),
        "ip_name": _bank_state(storage.ip_bank),
        "name_cname": _bank_state(storage.cname_bank),
    }
    json.dump(document, sink)
    return storage.total_entries()


def _validated_document(storage, source: TextIO) -> Dict:
    """Parse and fully validate a snapshot document — no mutation."""
    if storage.ip_bank is None:
        raise ParseError("exact-TTL storage cannot be restored into")
    try:
        document = json.load(source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("snapshot is not a JSON object")
    if document.get("version") != SNAPSHOT_VERSION:
        raise ParseError(f"unsupported snapshot version {document.get('version')!r}")
    banks: List[Tuple[StoreBank, str]] = [
        (storage.ip_bank, "ip_name"),
        (storage.cname_bank, "name_cname"),
    ]
    for bank, bank_name in banks:
        if bank_name not in document:
            raise ParseError(f"snapshot is missing bank {bank_name!r}")
        _check_bank_state(bank, document[bank_name], bank_name)
    return document


def load_storage(storage, source: TextIO) -> int:
    """Restore a snapshot into a compatibly configured DnsStorage.

    All-or-nothing: the whole document (version, both banks, every
    tier's split count and shape) is validated *before* any map is
    cleared, so an incompatible snapshot raises :class:`ParseError` with
    the target storage untouched. Returns the number of entries restored.
    """
    document = _validated_document(storage, source)
    _apply_bank_state(storage.ip_bank, document["ip_name"])
    _apply_bank_state(storage.cname_bank, document["name_cname"])
    return storage.total_entries()


def snapshot_saved_at(path: str) -> float:
    """The ``saved_at`` wall-clock stamp of a snapshot file (0.0 if absent)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        return float(document.get("saved_at") or 0.0)
    except (OSError, ValueError):
        return 0.0


def save_snapshot(storage, path: str) -> int:
    """Crash-safe snapshot write: temp file + fsync + atomic rename.

    The temp file lives in the target's directory (``os.replace`` must
    not cross filesystems) and is removed on any failure, so a crash or
    full disk mid-write leaves the previous snapshot intact. Returns the
    number of entries written.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(
        directory, f".{os.path.basename(path)}.{os.getpid()}.tmp"
    )
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            written = dump_storage(storage, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return written


def load_snapshot(storage, path: str) -> int:
    """Restore a snapshot file into ``storage`` (all-or-nothing).

    Raises :class:`ParseError` for corrupt/mismatched snapshots and
    :class:`OSError` for unreadable paths; callers that must degrade
    gracefully (``serve`` restore-on-start) catch both, warn, and start
    empty. Returns the number of entries restored.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return load_storage(storage, handle)
