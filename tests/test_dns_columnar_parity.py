"""Differential tests: the columnar DNS fill path vs the object reference.

The parity contract: for any payload sequence,
:func:`repro.dns.columnar.decode_fill_columns` →
``FillUpProcessor.process_columns`` must produce the same stored
records, the same :class:`FillUpStats` (including ``invalid`` and the
unknown-RR tolerance counter), and the same storage state as running
each payload through the ``repro.reference`` DNS filter
(``filter_message``) and filling its records one at a time
(``fill_record``).
Randomization (hypothesis) covers compression pointers (a small label
pool makes the encoder emit them constantly), CNAME chains, unknown RR
types and classes (including EDNS OPT, whose class field is a UDP
size), populated authority/additional sections, error rcodes, query
messages, truncation slices and single-byte corruption.

Storage snapshots are compared minus ``saved_at`` — the only field of a
dump that is wall-clock, not state. Engine-level legs pin the async
engine, under several batch layouts, to identical output rows and
reports whether it is fed the capture as ``(ts, wire)`` tuples
(columnar decode) or as the reference filter's ``DnsRecord`` s.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.pipeline import dns_items_to_batch
from repro.core.async_engine import AsyncEngine
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import decode_fill_columns
from repro.dns.rr import RClass, RRType
from repro.reference import (
    DnsMessage,
    Header,
    Question,
    Rcode,
    ResourceRecord,
    encode_message,
    fill_record,
    filter_message,
)
from repro.dns.stream import DnsRecord
from repro.dns.wire import Opcode
from repro.netflow.records import FlowRecord
from repro.storage.snapshot import snapshot_document

# A deliberately tiny label pool: almost every generated name shares a
# suffix with an earlier one, so NameCompressor emits compression
# pointers in nearly every message — the decoder feature most likely to
# diverge between the two paths.
_LABELS = ["cdn", "edge", "www", "img", "api", "svc", "origin"]
_TLDS = ["com", "net", "example"]


@st.composite
def _names(draw):
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=3))
    return ".".join(labels) + "." + draw(st.sampled_from(_TLDS))


@st.composite
def _answer_rr(draw, owner):
    kind = draw(
        st.sampled_from(
            ["a", "a", "a", "aaaa", "cname", "cname", "ns", "mx", "txt",
             "unknown_type", "unknown_class"]
        )
    )
    ttl = draw(st.integers(min_value=0, max_value=86400))
    if kind == "a":
        return ResourceRecord(owner, RRType.A, RClass.IN, ttl,
                              draw(st.binary(min_size=4, max_size=4)))
    if kind == "aaaa":
        return ResourceRecord(owner, RRType.AAAA, RClass.IN, ttl,
                              draw(st.binary(min_size=16, max_size=16)))
    if kind == "cname":
        return ResourceRecord(owner, RRType.CNAME, RClass.IN, ttl, draw(_names()))
    if kind == "ns":
        return ResourceRecord(owner, RRType.NS, RClass.IN, ttl, draw(_names()))
    if kind == "mx":
        return ResourceRecord(owner, RRType.MX, RClass.IN, ttl,
                              (draw(st.integers(0, 100)), draw(_names())))
    if kind == "txt":
        return ResourceRecord(owner, RRType.TXT, RClass.IN, ttl,
                              draw(st.binary(max_size=12)))
    if kind == "unknown_type":
        # SVCB/HTTPS-style: an rtype outside the enums, opaque rdata.
        return ResourceRecord(owner, draw(st.sampled_from([64, 65, 257])),
                              RClass.IN, ttl, draw(st.binary(max_size=8)))
    # Known type, class outside the enums (the EDNS trick of stuffing a
    # UDP size into the class field, generalised).
    return ResourceRecord(owner, RRType.A, draw(st.sampled_from([9, 4096])),
                          ttl, draw(st.binary(min_size=4, max_size=4)))


@st.composite
def _messages(draw):
    qname = draw(_names())
    header = Header(
        msg_id=draw(st.integers(0, 0xFFFF)),
        qr=draw(st.sampled_from([True, True, True, False])),
        opcode=Opcode.QUERY,
        rcode=draw(st.sampled_from([Rcode.NOERROR] * 3 + [Rcode.NXDOMAIN])),
    )
    owners = [qname] + draw(st.lists(_names(), max_size=2))
    answers = draw(
        st.lists(
            st.sampled_from(owners).flatmap(lambda o: _answer_rr(o)),
            max_size=6,
        )
    )
    authorities = draw(
        st.lists(
            _names().flatmap(
                lambda n: _names().map(
                    lambda t: ResourceRecord(n, RRType.NS, RClass.IN, 300, t)
                )
            ),
            max_size=2,
        )
    )
    additionals = []
    if draw(st.booleans()):
        # EDNS OPT: root owner, class carries the UDP payload size —
        # an unknown rclass both paths must skip-and-count.
        additionals.append(ResourceRecord(".", RRType.OPT, 4096, 0, b""))
    return DnsMessage(
        header=header,
        questions=[Question(qname, RRType.A, RClass.IN)],
        answers=answers,
        authorities=authorities,
        additionals=additionals,
    )


@st.composite
def _payloads(draw):
    """An encoded message, sometimes truncated or single-byte-corrupted."""
    wire = encode_message(draw(_messages()))
    mode = draw(st.sampled_from(["ok", "ok", "ok", "truncate", "flip"]))
    if mode == "truncate":
        return wire[: draw(st.integers(0, max(0, len(wire) - 1)))]
    if mode == "flip" and wire:
        i = draw(st.integers(0, len(wire) - 1))
        return wire[:i] + bytes([draw(st.integers(0, 255))]) + wire[i + 1 :]
    return wire


def _dump_without_clock(storage: DnsStorage) -> dict:
    state = json.loads(json.dumps(snapshot_document(storage)))
    state.pop("saved_at", None)
    return state


@given(payloads=st.lists(_payloads(), max_size=12))
@settings(max_examples=150, deadline=None)
def test_decode_fill_columns_matches_reference_filter(payloads):
    """Row-for-row and counter-for-counter parity at the decode layer."""
    stamps = [1000.0 + i for i in range(len(payloads))]
    reference = FillUpProcessor(DnsStorage(FlowDNSConfig()))
    ref_rows = []
    for t, payload in zip(stamps, payloads):
        ref_rows.extend(filter_message(reference, t, payload))

    batch = decode_fill_columns(payloads, stamps)
    assert batch.messages == len(payloads) == reference.stats.raw_messages
    assert batch.invalid == reference.stats.invalid
    assert batch.unknown_records == reference.stats.records_unknown_type
    assert batch.to_records() == ref_rows


@given(payloads=st.lists(_payloads(), max_size=10), scalar_ts=st.booleans())
@settings(max_examples=60, deadline=None)
def test_fill_lane_differential(payloads, scalar_ts):
    """End-to-end lane parity: stats and stored state, mixed item kinds,
    for the engines' fill lane."""
    if scalar_ts:
        batch = decode_fill_columns(payloads, 1000.0)
        assert batch.ts == [1000.0] * len(batch)
    stamps = [1000.0 + i for i in range(len(payloads))]
    # Interleave object records so the lane's one batch is built from
    # wire runs and records alike, in arrival order.
    extra = [
        DnsRecord(2000.0 + i, f"obj{i}.example", RRType.A, 60, f"192.0.2.{i + 1}")
        for i in range(3)
    ] + [DnsRecord(2003.0, "obj.example", RRType.NS, 60, "ns1.example")]
    items = [(t, p) for t, p in zip(stamps, payloads)]
    items = items[: len(items) // 2] + extra + items[len(items) // 2 :]

    # Reference: every item through the object filter, then one record
    # at a time into storage.
    ref_storage = DnsStorage(FlowDNSConfig())
    reference = FillUpProcessor(ref_storage)
    for item in items:
        records = [item] if isinstance(item, DnsRecord) else filter_message(reference, *item)
        for record in records:
            fill_record(reference, record)

    storage = DnsStorage(FlowDNSConfig())
    processor = FillUpProcessor(storage)
    processor.process_columns(dns_items_to_batch(items))

    assert processor.stats == reference.stats
    assert _dump_without_clock(storage) == _dump_without_clock(ref_storage)


def _exact_ttl_corpus():
    wires = []
    for i in range(30):
        name = f"svc{i % 7}.exact.example"
        msg = DnsMessage(
            questions=[Question(name, RRType.A, RClass.IN)],
            answers=[ResourceRecord(name, RRType.A, RClass.IN, 5 + i,
                                    bytes([10, 0, 0, i + 1]))],
        )
        wires.append((float(i), encode_message(msg)))
    return wires


def test_exact_ttl_forces_reference_path():
    """A.8 exact-TTL semantics must not be amortised: a wire run through
    the lane keeps the per-record store+tick cadence of the reference
    loop (``fill_record`` then ``tick`` per record)."""
    corpus = _exact_ttl_corpus()
    config = FlowDNSConfig(exact_ttl=True, exact_ttl_sweep_interval=5.0)

    ref_storage = DnsStorage(config)
    reference = FillUpProcessor(ref_storage)
    for ts, wire in corpus:
        for record in filter_message(reference, ts, wire):
            fill_record(reference, record)
            ref_storage.tick(record.ts)

    storage = DnsStorage(config)
    processor = FillUpProcessor(storage)
    processor.process_columns(dns_items_to_batch(corpus))

    def state(store):
        # Exact-TTL storages are not snapshot-able (entries expire by
        # wall time), so parity is probed through the sweep counters and
        # lookups at several clock positions around the TTL edges.
        exact = store._ip_exact.stats
        return (
            exact.sweeps, exact.swept_entries, exact.sweep_scanned,
            store.total_entries(),
        ) + tuple(
            store.lookup_ip(f"10.0.0.{i + 1}", now)
            for i in range(30)
            for now in (float(i), float(i) + 4.5, float(i) + 400.0)
        )

    assert processor.stats == reference.stats
    assert state(storage) == state(ref_storage)
    assert storage._ip_exact.stats.sweeps > 1  # the cadence was exercised


# ---------------------------------------------------------------------------
# Engine-level differential: every engine, columnar fill lane on vs off,
# identical correlation rows and report counters.
# ---------------------------------------------------------------------------

def _golden_dns_wires():
    wires = []
    for i in range(90):
        name = f"svc{i % 30}.gold.example"
        answers = [
            ResourceRecord(name, RRType.A, RClass.IN, 600,
                           bytes([10, 9, i % 30, 5]))
        ]
        if i % 3 == 0:
            answers.insert(
                0,
                ResourceRecord(f"www{i % 30}.gold.example", RRType.CNAME,
                               RClass.IN, 600, name),
            )
        if i % 5 == 0:
            # An unknown-type RR riding along must not cost the answers.
            answers.append(
                ResourceRecord(name, 65, RClass.IN, 600, b"\x00\x01")
            )
        msg = DnsMessage(
            questions=[Question(name, RRType.A, RClass.IN)],
            answers=answers,
            additionals=[ResourceRecord(".", RRType.OPT, 4096, 0, b"")]
            if i % 4 == 0
            else [],
        )
        wires.append((float(i), encode_message(msg)))
    # A few invalids the reports must agree on: truncated, query, garbage.
    wires.append((95.0, wires[0][1][:7]))
    query = DnsMessage(header=Header(qr=False),
                       questions=[Question("q.gold.example", RRType.A)])
    wires.append((96.0, encode_message(query)))
    wires.append((97.0, b"\x00" * 3))
    return wires


def _golden_flows():
    return [
        FlowRecord(ts=200.0 + i, src_ip=f"10.9.{i % 30}.5", dst_ip="100.64.0.1",
                   src_port=443, dst_port=40000 + i, protocol=6, packets=2,
                   bytes_=900 + i)
        for i in range(200)
    ]


def _rows(sink: io.StringIO):
    return sorted(
        line for line in sink.getvalue().splitlines()
        if line and not line.startswith("#")
    )


#: Engine batch layouts: the default, one item per lane wake-up, and a
#: size that splits every run of messages at an odd boundary.
BATCH_SIZES = (FlowDNSConfig().engine_batch_size, 1, 7)


def _run_one(batch_size: int, dns):
    # Memoisation off: it rewrites chain interiors on a batch-layout-
    # dependent schedule (tests/test_generated_differential.py).
    config = FlowDNSConfig(
        engine_batch_size=batch_size, memoize_cname_chains=False
    )
    sink = io.StringIO()
    report = AsyncEngine(config, sink=sink).run(
        dns, _golden_flows()
    )
    return report, _rows(sink)


COMPARABLE_FIELDS = (
    "dns_records",
    "flow_records",
    "matched_flows",
    "total_bytes",
    "correlated_bytes",
    "chain_lengths",
    "overwrites",
    "final_map_entries",
    "evictions",
)


def test_engines_agree_columnar_vs_reference():
    wires = _golden_dns_wires()
    # The same capture, object-decoded up front: what the engine's fill
    # lanes see when a source hands them DnsRecord items. The invalid
    # messages never become items, so dns_invalid is held to the
    # filter's own count instead of the reference run's.
    dns_filter = FillUpProcessor(storage=None)
    records = [r for ts, wire in wires for r in filter_message(dns_filter, ts, wire)]
    baseline = None
    for batch_size in BATCH_SIZES:
        layout = f"batch size {batch_size}"
        ref_report, ref_rows = _run_one(batch_size, records)
        col_report, col_rows = _run_one(batch_size, wires)
        assert ref_rows, f"{layout}: golden corpus produced no rows"
        assert col_rows == ref_rows, (
            f"{layout}: columnar fill lane changed the output rows"
        )
        assert col_report.dns_invalid == dns_filter.stats.invalid == 3
        for fieldname in COMPARABLE_FIELDS:
            assert getattr(col_report, fieldname) == getattr(
                ref_report, fieldname
            ), f"{layout}: {fieldname} diverged with columnar fill"
        if baseline is None:
            baseline = col_report, col_rows
            continue
        assert col_rows == baseline[1], f"{layout}: rows depend on batch layout"
        for fieldname in COMPARABLE_FIELDS:
            assert getattr(col_report, fieldname) == getattr(
                baseline[0], fieldname
            ), f"{layout}: {fieldname} depends on batch layout"
