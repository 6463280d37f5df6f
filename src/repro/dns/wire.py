"""DNS wire layouts (RFC 1035 §4) and the one response writer.

:mod:`repro.dns.columnar` decodes with the ``struct`` layouts below.
:func:`encode_response` writes every DNS message the generator, the
scenario corpus and the examples emit: question, CNAME chain, address
answers. The general object codec is the test-side oracle in
``repro.reference``.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Sequence

from repro.dns.name import NameCompressor, encode_name, normalize_name
from repro.dns.rr import RClass, RRType

#: Header, question tail (type, class), RR head (type, class, TTL, rdlength).
HEADER = struct.Struct("!HHHHHH")
QFIXED = struct.Struct("!HH")
RRFIXED = struct.Struct("!HHIH")

#: A recursive NOERROR response's flag word: QR, RD, RA, opcode QUERY.
_RESPONSE_FLAGS = 0x8180

_IN = int(RClass.IN)
_CNAME = int(RRType.CNAME)
_ADDRESS_LENGTH = {int(RRType.A): 4, int(RRType.AAAA): 16}


class Opcode(IntEnum):
    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


def encode_response(
    msg_id: int,
    chain: Sequence[str],
    rtype: int,
    addresses: Sequence[bytes],
    cname_ttl: int,
    a_ttl: int,
) -> bytes:
    """One NOERROR response resolving ``chain[0]`` through its CNAME chain.

    Question ``(chain[0], rtype)``, one CNAME answer per hop
    ``chain[i] → chain[i + 1]`` (TTL ``cname_ttl``), and one ``rtype``
    answer owned by ``chain[-1]`` per packed address (TTL ``a_ttl``).
    Owner names are compressed, CNAME targets are not. A name the wire
    cannot carry raises :class:`ParseError`; an address whose length does
    not fit ``rtype`` (4 for A, 16 for AAAA) raises ``ValueError``.
    """
    chain = [normalize_name(name) for name in chain]
    hops = len(chain) - 1
    rtype = int(rtype)
    width = _ADDRESS_LENGTH.get(rtype)
    encode = NameCompressor().encode
    out = bytearray(
        HEADER.pack(msg_id, _RESPONSE_FLAGS, 1, hops + len(addresses), 0, 0)
    )
    out += encode(chain[0], len(out))
    out += QFIXED.pack(rtype, _IN)
    for i in range(hops):
        out += encode(chain[i], len(out))
        rdata = encode_name(chain[i + 1])
        out += RRFIXED.pack(_CNAME, _IN, cname_ttl, len(rdata))
        out += rdata
    owner = chain[-1]
    for packed in addresses:
        if len(packed) != width:
            raise ValueError(f"answer {packed!r} does not fit rtype {rtype}")
        out += encode(owner, len(out))
        out += RRFIXED.pack(rtype, _IN, a_ttl, len(packed))
        out += packed
    return bytes(out)
