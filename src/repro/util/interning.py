"""Address text, and one bounded address cache for the object lanes.

Nothing here grows with the traffic a process sees. :func:`ip_text`
spells a packed 4- or 16-byte address in C, and :func:`ip_texts`
converts a decode burst's address column once per distinct address;
nothing outlives the burst. DNS names are not kept here either: the
columnar decoder spells them once per batch from their wire bytes
(:func:`repro.dns.name.decode_name`). :func:`cached_ip_address`
remains for the object lanes (``FlowRecord`` construction and
materialisation), which tests and object sources use; its table is
dropped wholesale at :data:`INTERN_TABLE_MAX` entries.
"""

from __future__ import annotations

import ipaddress
from socket import AF_INET6, inet_ntoa, inet_ntop
from typing import Dict, List, Sequence, Union

IPAddressLike = Union[str, bytes, int, ipaddress.IPv4Address, ipaddress.IPv6Address]

#: Cap on the address cache; 64K entries comfortably covers an ISP's hot set.
INTERN_TABLE_MAX = 1 << 16

_addresses: Dict[object, object] = {}


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
