"""The per-record oracles live in ``repro.reference``, and only tests use them.

Each pipeline layer has one production path. Its per-record twin, the
oracle the parity and differential suites compare against, sits in the
``repro.reference`` package. These checks keep it there: no production
module (nor the benchmark harness, nor an example) imports the package,
and no moved oracle name has crept back onto its production class or
module. The same holds for the write side: the DNS object codec is
reference-only, and the NetFlow collector modules define no writer.
"""

import ast
from pathlib import Path

import pytest

import repro
import repro.core
import repro.core.pipeline
import repro.core.writer
import repro.dns
import repro.dns.rr
import repro.dns.stream
import repro.dns.wire
import repro.netflow
import repro.netflow.export
import repro.netflow.ipfix
import repro.netflow.v5
import repro.netflow.v9
import repro.reference.wire
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import LookUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.netflow.collector import FlowCollector
from repro.netflow.ipfix import IpfixSession
from repro.netflow.v9 import V9Session
from repro.util.errors import ConfigError

_PACKAGE = Path(repro.__file__).parent
_ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(tree: ast.AST):
    """Every module name an ``import``/``from`` statement pulls in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _production_files():
    for path in sorted(_PACKAGE.rglob("*.py")):
        if path.relative_to(_PACKAGE).parts[0] != "reference":
            yield path
    for top in ("bench", "examples"):
        yield from sorted((_ROOT / top).rglob("*.py"))


def test_no_production_module_imports_the_reference_package():
    offenders = []
    for path in _production_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module in _imported_modules(tree):
            if module == "repro.reference" or module.startswith("repro.reference."):
                offenders.append(f"{path}: {module}")
    assert offenders == []


#: The oracles that moved to ``repro.reference``, by their old home.
_MOVED = [
    (FillUpProcessor, "process"),
    (FillUpProcessor, "filter_message"),
    (FillUpProcessor, "process_batch"),
    (DnsStorage, "add_record"),
    (DnsStorage, "add_many"),
    (repro.core.pipeline, "dns_item_records"),
    (repro.dns.stream, "records_from_message"),
    (LookUpProcessor, "process"),
    (LookUpProcessor, "is_valid"),
    (repro.core.writer, "format_result"),
    (repro.core, "format_result"),
    (FlowCollector, "ingest"),
    (V9Session, "decode"),
    (V9Session, "_decode_data_reference"),
    (IpfixSession, "decode"),
    (IpfixSession, "_decode_data_reference"),
    (repro.netflow.v5, "decode_v5"),
    (repro.netflow, "decode_v5"),
]

#: The DNS object codec: the test-side writer and the decode oracle.
_DNS_CODEC = [
    "Header",
    "Question",
    "DnsMessage",
    "Rcode",
    "encode_message",
    "_encode_rr",
    "_encode_rdata",
    "decode_message",
    "_decode_question",
    "_decode_rr",
    "ResourceRecord",
    "a_record",
    "aaaa_record",
    "cname_record",
    "decode_rdata",
]
_MOVED += [
    (module, name)
    for module in (repro.dns, repro.dns.wire, repro.dns.rr, repro)
    for name in _DNS_CODEC
]
_MOVED += [
    (repro.reference.wire.DnsMessage, "is_response"),
    (repro.reference.wire.DnsMessage, "address_answers"),
    (repro.reference.wire.DnsMessage, "cname_answers"),
]

#: The collector modules decode only; every writer is in netflow.export.
_NETFLOW_WRITERS = [
    "encode_v5",
    "encode_v9_template",
    "encode_v9_data",
    "_flow_to_field_bytes",
    "_pack_header",
    "encode_ipfix_template",
    "encode_ipfix_data",
    "_field_bytes",
    "_pack_message",
    "FlowExporter",
    "PackedV9Exporter",
]
_MOVED += [
    (module, name)
    for module in (repro.netflow.v5, repro.netflow.v9, repro.netflow.ipfix)
    for name in _NETFLOW_WRITERS
]

#: Writers no production code calls: test-side, in ``repro.reference``.
_TEST_SIDE_WRITERS = ["encode_v5", "encode_v9_data", "export_v5", "_v9_field_bytes"]
_MOVED += [
    (module, name)
    for module in (repro.netflow, repro.netflow.export, repro.netflow.v5, repro.netflow.v9)
    for name in _TEST_SIDE_WRITERS
]


def test_moved_oracles_are_gone_from_production():
    left = [f"{owner.__name__}.{name}" for owner, name in _MOVED if hasattr(owner, name)]
    assert left == []


def test_moved_names_are_not_exported():
    """No package ``__all__`` offers a moved name either."""
    assert set(repro.__all__).isdisjoint(_DNS_CODEC)
    assert set(repro.dns.__all__).isdisjoint(_DNS_CODEC)
    assert set(repro.netflow.__all__).isdisjoint(_TEST_SIDE_WRITERS)


def test_flow_exporter_writes_no_v5():
    """v5 export is the test-side ``repro.reference.export_v5`` only."""
    with pytest.raises(ConfigError):
        repro.netflow.export.FlowExporter(version=5)
