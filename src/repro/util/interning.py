"""Bounded intern tables for hot-path strings and parsed IP addresses.

FlowDNS pushes the same few thousand distinct strings (domain names, IP
texts) and packed addresses through the pipeline millions of times. The
codecs and adapters intern them here so every downstream dict operation
(map writes and lookups, chain walks) sees one shared object whose
``hash()`` is computed once. All tables are bounded: at the cap they are
dropped wholesale — an O(1) reset that keeps worst-case memory flat
while the steady-state working set (names live in the DNS maps anyway)
re-interns within one batch.
"""

from __future__ import annotations

import ipaddress
from socket import inet_ntoa
from typing import Dict, Union

IPAddressLike = Union[str, bytes, int, ipaddress.IPv4Address, ipaddress.IPv6Address]

#: Cap on each table; 64K entries comfortably covers an ISP's hot set.
INTERN_TABLE_MAX = 1 << 16

_strings: Dict[str, str] = {}
_wire_names: Dict[bytes, str] = {}
_addresses: Dict[object, object] = {}
_ip_texts: Dict[object, str] = {}


def intern_string(text: str) -> str:
    """Return the canonical shared object for ``text``."""
    cached = _strings.get(text)
    if cached is not None:
        return cached
    if len(_strings) >= INTERN_TABLE_MAX:
        _strings.clear()
        # A wire spelling must never resolve to a retired object.
        _wire_names.clear()
    _strings[text] = text
    return text


#: Probe by wire spelling (the dot-joined raw label bytes): the canonical
#: interned name, or None. Misses fill through :func:`intern_wire_name`.
wire_name_probe = _wire_names.get


def intern_wire_name(raw: bytes, name: str) -> str:
    """Intern ``name`` and remember it as what ``raw`` decodes to.

    ``name`` must be a pure function of ``raw`` (decode + normalize). The
    entry lives no longer than the string table's current generation, so
    the probe always returns the object :func:`intern_string` would.
    """
    name = intern_string(name)
    if len(_wire_names) >= INTERN_TABLE_MAX:
        _wire_names.clear()
    _wire_names[raw] = name
    return name


def cached_ip_address(raw: IPAddressLike):
    """``ipaddress.ip_address`` with a bounded cache keyed on the input.

    Accepts everything :func:`ipaddress.ip_address` accepts (text, packed
    bytes, int). Raises the same ``ValueError`` on invalid input; failures
    are never cached.
    """
    ip = _addresses.get(raw)
    if ip is None:
        ip = ipaddress.ip_address(raw)
        if len(_addresses) >= INTERN_TABLE_MAX:
            _addresses.clear()
        _addresses[raw] = ip
    return ip


#: The raw text table's probe, for decoders that inline the cache hit
#: path into generated code (one dict .get per address instead of a
#: Python call). Tables are only ever cleared in place, so this bound
#: method stays valid across clear_intern_tables()/overflow clears.
#: Misses must fall back to cached_ip_text, which validates and fills.
ip_text_probe = _ip_texts.get


def cached_ip_text(raw: IPAddressLike) -> str:
    """Canonical interned text for an address, without the address object.

    The columnar flow path keys its DNS-map lookups on IP *text*; going
    straight from the wire representation (packed bytes for v9/IPFIX,
    host int for v5) to the interned text skips the ``ipaddress`` object
    the per-record path materialises. The text is the same canonical
    spelling ``str(ip_address(raw))`` produces, so it hash-matches the
    keys FillUp interned. Raises ``ValueError`` on invalid input;
    failures are never cached.
    """
    text = _ip_texts.get(raw)
    if text is None:
        if type(raw) is bytes and len(raw) == 4:
            # Packed IPv4: every 4-byte value is a valid address and its
            # canonical spelling is plain dotted-quad, which inet_ntoa
            # writes in C — no ipaddress object on first sight. (IPv6
            # stays on ipaddress: its :: compression rules are not worth
            # reimplementing.)
            text = intern_string(inet_ntoa(raw))
        elif isinstance(raw, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
            text = intern_string(str(raw))
        else:
            text = intern_string(str(ipaddress.ip_address(raw)))
        if len(_ip_texts) >= INTERN_TABLE_MAX:
            _ip_texts.clear()
        _ip_texts[raw] = text
    return text


def clear_intern_tables() -> None:
    """Drop all tables (tests and long-lived processes)."""
    _strings.clear()
    _wire_names.clear()
    _addresses.clear()
    _ip_texts.clear()
