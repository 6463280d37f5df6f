"""Storage snapshots: persist and restore FlowDNS's DNS state.

Operationally, restarting FlowDNS starts with empty hashmaps and
correlation stays degraded until the maps re-fill (up to a clear-up
interval). Snapshotting the storage periodically and restoring on start
removes that gap. The format is a versioned JSON document covering the
Active/Inactive/Long tiers of both banks, one object per tier, including
the clear-up bookkeeping, so a restored store rotates on schedule.
Version 1 documents (one object per label split of each tier) restore by
merging each tier's split objects in order.

Three layers:

* :func:`snapshot_document` — the state as a document of copied plain
  dicts. Taking it is one ``dict.copy()`` per tier, so it runs on the
  thread that owns the store; everything after it can run elsewhere.
* :func:`load_storage` — stream-level restore, for callers that
  manage their own files. Restore is
  **all-or-nothing**: the whole document is validated against the target
  storage before any map is touched, so a mismatched or truncated
  snapshot can never leave the store half-wiped.
* :func:`write_snapshot` / :func:`save_snapshot` / :func:`load_snapshot`
  — path-level, crash-safe. A write goes to a temp file in the same
  directory, fsyncs, and atomically renames over the target: a crash (or
  full disk) mid-write leaves the previous snapshot intact, never a
  truncated one.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, TextIO, Tuple

from repro.storage.rotating import StoreBank
from repro.util.errors import ParseError

SNAPSHOT_VERSION = 2

_TIER_NAMES = ("active", "inactive", "long")
_BANK_NAMES = ("ip_name", "name_cname")


def _bank_state(bank: StoreBank) -> Dict:
    return {
        "clear_up_interval": bank.clear_up_interval,
        "last_clear_ts": bank._last_clear_ts,
        "tiers": {name: getattr(bank, name).copy() for name in _TIER_NAMES},
    }


def snapshot_document(storage) -> Dict:
    """A DnsStorage's rotating banks as a snapshot document.

    Every tier is a copy, so the document may be encoded and written
    while the store keeps changing. Exact-TTL storages are not
    snapshot-able (their entries expire by wall time; a restore would
    resurrect stale records), and raise :class:`ParseError`.
    """
    if storage.ip_bank is None:
        raise ParseError("exact-TTL storage cannot be snapshotted")
    return {
        "version": SNAPSHOT_VERSION,
        "saved_at": time.time(),
        "ip_name": _bank_state(storage.ip_bank),
        "name_cname": _bank_state(storage.cname_bank),
    }


def _document_entries(document: Dict) -> int:
    return sum(
        len(entries)
        for bank_name in _BANK_NAMES
        for entries in document[bank_name]["tiers"].values()
    )


def _tier_entries(tier_state, version: int, where: str) -> Dict[str, str]:
    """One tier's entries; a version 1 tier is a list of split objects,
    merged in order."""
    if version == 1:
        if not isinstance(tier_state, list):
            raise ParseError(f"snapshot {where} is not a list of splits")
        parts = tier_state
    else:
        parts = [tier_state]
    entries: Dict[str, str] = {}
    for part in parts:
        if not isinstance(part, dict):
            raise ParseError(f"snapshot {where} holds a non-object")
        entries.update(part)
    return entries


def _checked_bank_state(bank: StoreBank, state, bank_name: str, version: int) -> Dict:
    """Validate one bank's state against its target — no mutation here.

    Returns ``{"last_clear_ts": ..., "tiers": {tier: entries}}``.
    """
    if not isinstance(state, dict):
        raise ParseError(f"snapshot bank {bank_name!r} is not an object")
    if state.get("clear_up_interval") != bank.clear_up_interval:
        raise ParseError(
            f"snapshot bank {bank_name!r} was taken with clear_up_interval="
            f"{state.get('clear_up_interval')!r}, bank has "
            f"{bank.clear_up_interval!r}"
        )
    tiers = state.get("tiers")
    if not isinstance(tiers, dict):
        raise ParseError(f"snapshot bank {bank_name!r} has no tiers")
    return {
        "last_clear_ts": state.get("last_clear_ts"),
        "tiers": {
            tier_name: _tier_entries(
                tiers.get(tier_name), version, f"bank {bank_name!r} tier {tier_name!r}"
            )
            for tier_name in _TIER_NAMES
        },
    }


def _validated_banks(storage, source: TextIO) -> List[Tuple[StoreBank, Dict]]:
    """Parse and fully validate a snapshot document — no mutation."""
    if storage.ip_bank is None:
        raise ParseError("exact-TTL storage cannot be restored into")
    try:
        document = json.load(source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("snapshot is not a JSON object")
    version = document.get("version")
    if version not in (1, SNAPSHOT_VERSION):
        raise ParseError(f"unsupported snapshot version {version!r}")
    banks = []
    for bank, bank_name in zip((storage.ip_bank, storage.cname_bank), _BANK_NAMES):
        if bank_name not in document:
            raise ParseError(f"snapshot is missing bank {bank_name!r}")
        banks.append((bank, _checked_bank_state(bank, document[bank_name], bank_name, version)))
    return banks


def load_storage(storage, source: TextIO) -> int:
    """Restore a snapshot into a compatibly configured DnsStorage.

    All-or-nothing: the whole document (version, both banks, every
    tier's shape, the clear-up intervals) is validated *before* any map
    is replaced, so an incompatible snapshot raises :class:`ParseError`
    with the target storage untouched. Returns the number of entries
    restored.
    """
    for bank, state in _validated_banks(storage, source):
        bank._last_clear_ts = state["last_clear_ts"]
        for tier_name, entries in state["tiers"].items():
            setattr(bank, tier_name, entries)
    return storage.total_entries()


def write_snapshot(document: Dict, path: str) -> int:
    """Crash-safe write of a :func:`snapshot_document`: temp file + fsync
    + atomic rename.

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
            json.dump(document, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return _document_entries(document)


def save_snapshot(storage, path: str) -> int:
    """:func:`write_snapshot` of the storage's current state."""
    return write_snapshot(snapshot_document(storage), path)


def load_snapshot(storage, path: str) -> int:
    """Restore a snapshot file into ``storage`` (all-or-nothing).

    Raises :class:`ParseError` for corrupt/mismatched snapshots and
    :class:`OSError` for unreadable paths; callers that must degrade
    gracefully (``serve`` restore-on-start) catch both, warn, and start
    empty. Returns the number of entries restored.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return load_storage(storage, handle)
