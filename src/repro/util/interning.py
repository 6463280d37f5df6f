"""Bounded intern tables for hot-path names, and address text.

FlowDNS pushes the same few thousand distinct domain names through the
pipeline millions of times. The DNS codecs and records intern them here
so every downstream dict operation (map writes and lookups, chain walks)
sees one shared object whose ``hash()`` is computed once. The tables
are bounded: at the cap they are dropped wholesale — an O(1) reset that
keeps worst-case memory flat while the steady-state working set (names
live in the DNS maps anyway) re-interns within one batch.

Addresses are not interned. :func:`ip_text` spells a packed 4- or
16-byte address in C, and :func:`ip_texts` converts a decode burst's
address column once per distinct address; nothing outlives the burst,
so no table grows with the number of addresses a process sees.
:func:`cached_ip_address` remains for the object lanes (``FlowRecord``
construction and materialisation), which tests and object sources use.
"""

from __future__ import annotations

import ipaddress
from socket import AF_INET6, inet_ntoa, inet_ntop
from typing import Dict, List, Sequence, Union

IPAddressLike = Union[str, bytes, int, ipaddress.IPv4Address, ipaddress.IPv6Address]

#: Cap on each table; 64K entries comfortably covers an ISP's hot set.
INTERN_TABLE_MAX = 1 << 16

_strings: Dict[str, str] = {}
_wire_names: Dict[bytes, str] = {}
_addresses: Dict[object, object] = {}


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


def ip_text(raw: bytes) -> str:
    """Canonical text of a packed 4- or 16-byte address:
    ``str(ipaddress.ip_address(raw))``, spelled in C.

    IPv6 goes through ``inet_ntop``, whose compression matches
    ``ipaddress``; only a dotted IPv4 tail (which ``inet_ntop`` writes
    for ``::ffff:0:0/96`` and ``::/96``, and ``ipaddress`` spells by
    Python version) takes the ``ipaddress`` path. Raises ``ValueError``
    for any other length.
    """
    if len(raw) == 4:
        return inet_ntoa(raw)
    text = inet_ntop(AF_INET6, raw)
    if "." in text:
        return str(ipaddress.IPv6Address(raw))
    return text


def ip_texts(raws: Sequence[bytes]) -> List[str]:
    """:func:`ip_text` of every packed address in ``raws``, converting
    each distinct address once."""
    distinct = dict.fromkeys(raws)
    texts = dict(zip(distinct, map(ip_text, distinct)))
    return list(map(texts.__getitem__, raws))
