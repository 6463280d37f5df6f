"""The per-record oracles live in ``repro.reference``, and only tests use them.

Each pipeline layer has one production path. Its per-record twin, the
oracle the parity and differential suites compare against, sits in the
``repro.reference`` package. These checks keep it there: no production
module (nor the benchmark harness, nor an example) imports the package,
and no moved oracle name has crept back onto its production class or
module.
"""

import ast
from pathlib import Path

import repro
import repro.core
import repro.core.pipeline
import repro.core.writer
import repro.dns.stream
import repro.netflow
import repro.netflow.v5
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import LookUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.netflow.collector import FlowCollector
from repro.netflow.ipfix import IpfixSession
from repro.netflow.v9 import V9Session

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


def test_moved_oracles_are_gone_from_production():
    left = [f"{owner.__name__}.{name}" for owner, name in _MOVED if hasattr(owner, name)]
    assert left == []
