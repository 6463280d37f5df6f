"""Production ``src/`` holds no public name that only tests reach.

The scan: every public ``def``/``class`` name in a production module
(not ``repro.reference``, not a package ``__init__``) must be used
somewhere outside its own definition — in another production module, in
``bench/``, ``examples/`` or ``benchmarks/``. A use is any name,
attribute, ``from`` import or identifier-like string constant with that
spelling; ``__init__`` re-exports do not count. The names below are the
ones that stay anyway, each with its reason. A new test-only name fails
this test; so does a listed name that is gone or has gained a caller
(drop it from the list).
"""

import ast
from collections import Counter
from pathlib import Path

import repro

_PACKAGE = Path(repro.__file__).parent
_ROOT = Path(__file__).resolve().parents[1]

_FACADE = "the FlowDNS facade, the package's embedding API (repro.FlowDNS)"
_DECODE = "test seam: one datagram through the production decode, as the codec suites drive it"
_RECORDS = "test seam: a columnar batch back as records, for the parity suites to compare"
_STATE = "test seam: reads state the production path keeps, for the framing and codec tests"
_DEFERRED = "to delete with its own tests in a later change (ROADMAP item 8)"

#: ``module:qualified name`` -> why it stays.
KEPT = {
    "core/flowdns.py:FlowDNS": _FACADE,
    "core/flowdns.py:FlowDNS.add_dns": _FACADE,
    "core/flowdns.py:FlowDNS.service_of": _FACADE,
    "core/flowdns.py:FlowDNS.lookup_stats": _FACADE,
    "core/writer.py:DiscardSink.writable": "io.TextIOBase protocol method",
    "dns/columnar.py:DnsBatch.to_records": _RECORDS,
    "netflow/records.py:FlowBatch.to_records": _RECORDS,
    "netflow/v5.py:decode_v5_columns": _DECODE,
    "netflow/v9.py:V9Session.decode_batch_columns": _DECODE,
    "netflow/ipfix.py:IpfixSession.decode_batch_columns": _DECODE,
    "netflow/v9.py:V9Session.template_for": _STATE,
    "netflow/ipfix.py:IpfixSession.template_for": _STATE,
    "dns/tcp.py:TcpFrameDecoder.pending_bytes": _STATE,
    "replay/capture.py:CaptureDecoder.pending_bytes": _STATE,
    "bgp/prefix_trie.py:PrefixTrie.remove": _DEFERRED,
    "bgp/rib.py:Route.handover_asn": _DEFERRED,
    "netflow/records.py:FlowRecord.is_dns_port": _DEFERRED,
    "workloads/cdn.py:CdnProvider.asn_for": _DEFERRED,
    "workloads/cdn.py:CdnHosting.provider_of": _DEFERRED,
    "workloads/cdn.py:CdnHosting.chain_of": _DEFERRED,
    "workloads/domains.py:DomainUniverse.service_named": _DEFERRED,
}


def _production_modules():
    for path in sorted(_PACKAGE.rglob("*.py")):
        rel = path.relative_to(_PACKAGE)
        if rel.parts[0] != "reference" and path.name != "__init__.py":
            yield rel.as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _count_uses(tree: ast.AST, uses: Counter) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                uses[node.value] += 1


def _public_definitions(body, prefix=""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, prefix + node.name
            if isinstance(node, ast.ClassDef):
                yield from _public_definitions(node.body, f"{prefix}{node.name}.")


def test_every_test_only_public_name_is_listed():
    uses: Counter = Counter()
    definitions = []
    for rel, tree in _production_modules():
        _count_uses(tree, uses)
        definitions += [(name, f"{rel}:{qualified}")
                        for name, qualified in _public_definitions(tree.body)]
    for top in ("bench", "examples", "benchmarks"):
        for path in sorted((_ROOT / top).rglob("*.py")):
            _count_uses(ast.parse(path.read_text(encoding="utf-8")), uses)
    unused = {qualified for name, qualified in definitions if uses[name] == 0}
    assert sorted(unused - set(KEPT)) == [], "new test-only public names"
    assert sorted(set(KEPT) - unused) == [], "listed names that are gone or now used"
