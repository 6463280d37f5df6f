"""Differential tests: the columnar flow path vs the per-record reference.

PR 3's parity contract: for any flow population the pipeline can see,
``correlate_batch_columns`` over a :class:`FlowBatch` must produce the
same chains, the same :class:`LookUpStats`, the same store stats, and
(when materialised) the
same records — including ``FlowRecord.extra``, which is ``compare=False``
and therefore asserted explicitly — as the per-record oracle
(``repro.reference.correlate_record`` / ``resolve``) applied under the batch
contract spelled out in :func:`_reference_correlate`. Randomization
(hypothesis) covers IPv4+IPv6 pools, SOURCE/DESTINATION/BOTH directions,
CNAME chains, invalid counters, per-flow extras, and the exact-TTL
per-record branch. The compiled columnar decoders are pinned against the
per-field reference decoders over randomized flows for all three wire
formats, and the engine's columnar lanes are pinned across batch
layouts on a mixed-item corpus.
"""

import io
import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.async_engine import AsyncEngine
from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import CorrelationResult, LookUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.core.writer import format_batch
from repro.dns.columnar import DnsBatch
from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowBatch, FlowRecord
from repro.netflow.v5 import decode_v5_columns
from repro.netflow.export import (
    encode_ipfix_data,
    encode_ipfix_template,
    encode_v9_template,
)
from repro.netflow.v9 import STANDARD_V4_TEMPLATE, STANDARD_V6_TEMPLATE, V9Session
from repro.netflow.ipfix import IPFIX_V4_TEMPLATE, IpfixSession
from repro.reference import (
    correlate_record,
    decode_ipfix,
    decode_v5,
    decode_v9,
    encode_v5,
    encode_v9_data,
    fill_record,
    format_result,
    is_valid,
)
from repro.util.interning import cached_ip_address

# ---------------------------------------------------------------------------
# Fixed pools the strategies index into: canonical-text addresses (half of
# them covered by DNS answers), names wired into CNAME chains of varying
# depth, and a couple of addresses the map never holds.
# ---------------------------------------------------------------------------

_V4_POOL = [f"198.51.100.{i}" for i in range(1, 9)]
_V6_POOL = [str(ipaddress.IPv6Address(f"2001:db8::{i:x}")) for i in range(1, 9)]
_POOL = _V4_POOL + _V6_POOL


def _dns_corpus():
    """A/AAAA answers for half the pool + CNAME chains of depth 0–3."""
    records = []
    for i, ip in enumerate(_POOL):
        if i % 2:
            continue  # half the pool stays unmatched
        rtype = RRType.AAAA if ":" in ip else RRType.A
        records.append(DnsRecord(1000.0 + i, f"svc{i}.example", rtype, 300, ip))
        for hop in range(i % 4):
            records.append(
                DnsRecord(
                    1000.0 + i,
                    f"svc{i}.example" if hop == 0 else f"hop{hop}.svc{i}.example",
                    RRType.CNAME,
                    300,
                    f"hop{hop + 1}.svc{i}.example",
                )
            )
    return records


@st.composite
def _rows(draw):
    """One flow as a plain field tuple (the two paths build from this)."""
    src = draw(st.sampled_from(_POOL + ["203.0.113.250", "2001:db8:dead::1"]))
    dst = draw(st.sampled_from(_POOL + ["203.0.113.251"]))
    extra = draw(
        st.one_of(
            st.just(None),
            st.dictionaries(st.sampled_from(["tos", "src_as"]),
                            st.integers(min_value=0, max_value=255), max_size=2),
        )
    )
    return (
        1000.0 + draw(st.integers(min_value=0, max_value=400)),  # ts
        src,
        dst,
        draw(st.integers(min_value=0, max_value=65535)),  # src_port
        draw(st.integers(min_value=0, max_value=65535)),  # dst_port
        draw(st.sampled_from([6, 17])),  # protocol
        draw(st.integers(min_value=-1, max_value=50)),  # packets (-1 = invalid)
        draw(st.integers(min_value=-1, max_value=9000)),  # bytes_ (-1 = invalid)
        extra,
    )


def _record_from_row(row) -> FlowRecord:
    """Build the reference FlowRecord, bypassing validation like
    ``FlowBatch.record`` does so deliberately-invalid counters can exist."""
    ts, src, dst, sp, dp, proto, packets, bytes_, extra = row
    rec = object.__new__(FlowRecord)
    rec.__dict__.update(
        ts=ts,
        src_ip=cached_ip_address(src),
        dst_ip=cached_ip_address(dst),
        src_port=sp,
        dst_port=dp,
        protocol=proto,
        packets=packets,
        bytes_=bytes_,
        extra=dict(extra) if extra else {},
    )
    return rec


def _batch_from_rows(rows) -> FlowBatch:
    batch = FlowBatch()
    for ts, src, dst, sp, dp, proto, packets, bytes_, extra in rows:
        batch.append_row(ts, src, dst, sp, dp, proto, packets, bytes_,
                         dict(extra) if extra else None)
    return batch


def _filled_storage(config: FlowDNSConfig) -> DnsStorage:
    storage = DnsStorage(config)
    fillup = FillUpProcessor(storage)
    records = _dns_corpus()
    if config.exact_ttl:
        for record in records:
            fill_record(fillup, record)
            storage.tick(record.ts)
    else:
        fillup.process_columns(DnsBatch.from_records(records))
    return storage


def _reference_correlate(processor: LookUpProcessor, flows):
    """The per-record oracle, run under the batch contract.

    Exact-TTL: plain :func:`correlate_record` per flow, each at
    its own timestamp. Otherwise the contract a batch adds on top of
    ``correlate_record``: every *unique* lookup IP of the valid flows is resolved
    exactly once — one ``resolve()`` each, in first-appearance order, at
    ``now`` = the first row's ``ts`` — and the chain is shared by all the
    batch's flows carrying that IP. ``resolve()`` moves only the
    chain-walk counters, so the flow-level counters are tallied here,
    the way ``correlate_record`` tallies them per flow, and the processor's
    ``stats`` end up comparable field for field.
    """
    if not flows:
        return []
    if processor.config.exact_ttl:
        return [correlate_record(processor, flow) for flow in flows]
    now = flows[0].ts
    lookup_ips = [str(flow.src_ip) if is_valid(flow) else None for flow in flows]
    chains = {}
    for ip in lookup_ips:
        if ip is not None and ip not in chains:
            chains[ip] = tuple(processor.resolve(ip, now))
    stats = processor.stats
    results = []
    for flow, ip in zip(flows, lookup_ips):
        stats.flows_in += 1
        stats.bytes_in += flow.bytes_
        chain = ()
        if ip is None:
            stats.invalid += 1
        else:
            chain = chains[ip]
            if chain:
                stats.matched += 1
                stats.bytes_matched += flow.bytes_
                stats.chain_lengths[len(chain)] = stats.chain_lengths.get(len(chain), 0) + 1
            else:
                stats.unmatched += 1
        results.append(CorrelationResult(flow, chain, flow.ts))
    return results


@given(
    rows=st.lists(_rows(), min_size=0, max_size=14),
    exact_ttl=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_correlate_batch_columns_matches_reference(rows, exact_ttl):
    config = FlowDNSConfig(exact_ttl=exact_ttl)
    # Two identically-filled storages: chain-walk memoisation writes back
    # into storage, so sharing one would let the first run distort the
    # second's counters.
    ref_storage = _filled_storage(config)
    col_storage = _filled_storage(config)

    reference = LookUpProcessor(ref_storage, config)
    results = _reference_correlate(reference, [_record_from_row(r) for r in rows])

    columnar = LookUpProcessor(col_storage, config)
    correlated = columnar.correlate_batch_columns(_batch_from_rows(rows))

    # Same chains, row for row.
    assert correlated.chains == [r.chain for r in results]

    # Same counters — LookUpStats is a dataclass, so this compares every
    # field including the chain-length histogram.
    assert columnar.stats == reference.stats

    # Same store-level state: under exact-TTL a lookup deletes the
    # expired entries it meets, so this pins the order rows are resolved in.
    assert [s.stats for s in col_storage.stores] == [s.stats for s in ref_storage.stores]
    assert col_storage.total_entries() == ref_storage.total_entries()

    # The batch's stats deltas agree with the (fresh) processor counters.
    assert correlated.matched == columnar.stats.matched
    assert correlated.invalid == columnar.stats.invalid
    assert correlated.bytes_in == columnar.stats.bytes_in
    assert correlated.bytes_matched == columnar.stats.bytes_matched

    # Materialised results are parity-identical, including extra
    # (compare=False on the dataclass, so == alone would not see it).
    materialised = correlated.results()
    assert len(materialised) == len(results)
    for ours, ref in zip(materialised, results):
        assert ours.flow == ref.flow
        assert ours.flow.extra == ref.flow.extra
        assert ours.ts == ref.ts
        assert ours.chain == ref.chain

    # results(only_matched=True) is exactly the matched subset.
    assert [r.chain for r in correlated.results(only_matched=True)] == [
        r.chain for r in results if r.matched
    ]

    # The columnar write path formats the same rows the object path would.
    assert format_batch(correlated) == [format_result(r) for r in results]


# ---------------------------------------------------------------------------
# Decoder twins over randomized flows, all three wire formats.
# ---------------------------------------------------------------------------

_flow_fields = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),  # src ip int
    st.integers(min_value=0, max_value=2**32 - 1),  # dst ip int
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=2**31),
)


def _flows_from_fields(fields, v6=False):
    flows = []
    for i, (src, dst, sp, dp, proto, packets, bytes_) in enumerate(fields):
        flows.append(
            FlowRecord(
                ts=1000.0 + i,
                src_ip=str(ipaddress.IPv6Address(src) if v6 else ipaddress.IPv4Address(src)),
                dst_ip=str(ipaddress.IPv6Address(dst) if v6 else ipaddress.IPv4Address(dst)),
                src_port=sp,
                dst_port=dp,
                protocol=proto,
                packets=packets,
                bytes_=bytes_,
            )
        )
    return flows


def _assert_record_parity(objects, batch):
    materialised = batch.to_records()
    assert materialised == objects
    for ours, ref in zip(materialised, objects):
        assert ours.ts == ref.ts
        assert ours.extra == ref.extra


@given(fields=st.lists(_flow_fields, min_size=0, max_size=6), v6=st.booleans())
@settings(max_examples=60, deadline=None)
def test_v9_columns_match_object_decode(fields, v6):
    template = STANDARD_V6_TEMPLATE if v6 else STANDARD_V4_TEMPLATE
    flows = _flows_from_fields(fields, v6)
    session = V9Session()
    decode_v9(session, encode_v9_template([template], unix_secs=1000))
    datagram = encode_v9_data(template, flows, unix_secs=1000, sequence=1)
    _assert_record_parity(decode_v9(session, datagram),
                          session.decode_batch_columns(datagram))


@given(fields=st.lists(_flow_fields, min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_ipfix_columns_match_object_decode(fields):
    flows = _flows_from_fields(fields)
    session = IpfixSession()
    decode_ipfix(session, encode_ipfix_template([IPFIX_V4_TEMPLATE], export_secs=1000))
    message = encode_ipfix_data(IPFIX_V4_TEMPLATE, flows, export_secs=1000, sequence=1)
    _assert_record_parity(decode_ipfix(session, message),
                          session.decode_batch_columns(message))


@given(fields=st.lists(_flow_fields, min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_v5_columns_match_object_decode(fields):
    flows = _flows_from_fields(fields)
    datagram = encode_v5(flows, unix_secs=1000, sys_uptime_ms=0)
    ref_header, objects = decode_v5(datagram)
    col_header, batch = decode_v5_columns(datagram)
    assert col_header == ref_header
    _assert_record_parity(objects, batch)


def test_template_refresh_invalidates_columnar_decoder_cache():
    """Regression: a re-announced template must recompile the columnar decoder.

    Re-learning a template id with a different layout once left the
    session's compiled-decoder cache serving the old struct, silently
    garbling every later columnar decode.
    """
    from repro.netflow.v9 import (
        IN_BYTES,
        IN_PKTS,
        IPV4_DST_ADDR,
        IPV4_SRC_ADDR,
        L4_DST_PORT,
        L4_SRC_PORT,
        LAST_SWITCHED,
        PROTOCOL,
        TemplateField,
        TemplateRecord,
    )

    flows = _flows_from_fields([(0x0A000001, 0x0A000002, 443, 5000, 6, 3, 900)])
    layout_a = STANDARD_V4_TEMPLATE
    # Same template id, different field order: decoding a layout-B
    # payload with layout-A's struct cannot give the same records.
    layout_b = TemplateRecord(
        template_id=layout_a.template_id,
        fields=(
            TemplateField(IN_BYTES, 4),
            TemplateField(IPV4_DST_ADDR, 4),
            TemplateField(IPV4_SRC_ADDR, 4),
            TemplateField(L4_DST_PORT, 2),
            TemplateField(L4_SRC_PORT, 2),
            TemplateField(PROTOCOL, 1),
            TemplateField(IN_PKTS, 4),
            TemplateField(LAST_SWITCHED, 4),
        ),
    )
    session = V9Session()
    decode_v9(session, encode_v9_template([layout_a], unix_secs=1000))
    datagram_a = encode_v9_data(layout_a, flows, unix_secs=1000, sequence=1)
    _assert_record_parity(decode_v9(session, datagram_a),
                          session.decode_batch_columns(datagram_a))
    decode_v9(session, encode_v9_template([layout_b], unix_secs=1000))
    datagram_b = encode_v9_data(layout_b, flows, unix_secs=1000, sequence=2)
    objects = decode_v9(session, datagram_b)
    assert objects == flows  # the refresh itself decoded correctly
    _assert_record_parity(objects, session.decode_batch_columns(datagram_b))


def test_ipfix_template_refresh_invalidates_columnar_decoder_cache():
    from repro.netflow.v9 import (
        IN_BYTES,
        IN_PKTS,
        IPV4_DST_ADDR,
        IPV4_SRC_ADDR,
        TemplateField,
        TemplateRecord,
    )
    from repro.netflow.ipfix import FLOW_END_MILLISECONDS

    flows = _flows_from_fields([(0x0A000001, 0x0A000002, 443, 5000, 6, 3, 900)])
    layout_a = IPFIX_V4_TEMPLATE
    layout_b = TemplateRecord(
        template_id=layout_a.template_id,
        fields=(
            TemplateField(IN_BYTES, 8),
            TemplateField(IPV4_DST_ADDR, 4),
            TemplateField(IPV4_SRC_ADDR, 4),
            TemplateField(IN_PKTS, 4),
            TemplateField(FLOW_END_MILLISECONDS, 8),
        ),
    )
    session = IpfixSession()
    decode_ipfix(session, encode_ipfix_template([layout_a], export_secs=1000))
    message_a = encode_ipfix_data(layout_a, flows, export_secs=1000, sequence=1)
    _assert_record_parity(decode_ipfix(session, message_a),
                          session.decode_batch_columns(message_a))
    decode_ipfix(session, encode_ipfix_template([layout_b], export_secs=1000))
    message_b = encode_ipfix_data(layout_b, flows, export_secs=1000, sequence=2)
    _assert_record_parity(decode_ipfix(session, message_b),
                          session.decode_batch_columns(message_b))


# ---------------------------------------------------------------------------
# Engine lanes across batch layouts, mixed stream item types (records and
# raw datagrams — a v9 template among them).
# ---------------------------------------------------------------------------

def test_engine_lanes_agree_across_batch_layouts():
    dns = [
        DnsRecord(float(i), f"svc{i % 40}.example", RRType.A, 300, f"10.0.{i % 40}.5")
        for i in range(120)
    ]
    flows = [
        FlowRecord(ts=float(i), src_ip=f"10.0.{i % 40}.5", dst_ip="100.64.0.1",
                   bytes_=1400 + i)
        for i in range(400)
    ]
    later = [
        FlowRecord(ts=500.0 + i, src_ip=f"10.0.{i % 40}.5", dst_ip="100.64.0.2",
                   bytes_=900)
        for i in range(50)
    ]
    session_flows = [
        FlowRecord(ts=600.0 + i, src_ip=f"10.0.{i % 13}.5", dst_ip="203.0.113.9",
                   src_port=443, dst_port=50000 + i, protocol=6, packets=2,
                   bytes_=700 + i)
        for i in range(30)
    ]
    v9_template = encode_v9_template([STANDARD_V4_TEMPLATE], unix_secs=0)
    v9_data = encode_v9_data(STANDARD_V4_TEMPLATE, session_flows, unix_secs=0, sequence=7)
    v5_data = encode_v5(session_flows, unix_secs=600, sys_uptime_ms=0)

    def flow_items():
        return list(flows) + later + [v9_template, v9_data, v5_data]

    def run(batch_size):
        sink = io.StringIO()
        config = FlowDNSConfig(
            engine_batch_size=batch_size, memoize_cname_chains=False
        )
        report = AsyncEngine(config, sink=sink).run(
            list(dns), flow_items()
        )
        rows = sorted(line for line in sink.getvalue().splitlines()
                      if line and not line.startswith("#"))
        return report, rows

    baseline_report, baseline_rows = run(FlowDNSConfig().engine_batch_size)
    expected_flows = len(flows) + len(later) + 2 * len(session_flows)
    assert baseline_report.flow_records == expected_flows
    for batch_size in (1, 7):
        report, rows = run(batch_size)
        assert report.flow_records == expected_flows
        assert report.matched_flows == baseline_report.matched_flows
        assert report.total_bytes == baseline_report.total_bytes
        assert report.correlated_bytes == baseline_report.correlated_bytes
        assert report.chain_lengths == baseline_report.chain_lengths
        assert report.dns_records == baseline_report.dns_records
        assert rows == baseline_rows
