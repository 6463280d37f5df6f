"""Configurable input-format adapters.

Section 3 of the paper: "We note that the system is not bound to NetFlow
data and can be adapted to use other data formats containing IP
addresses and timestamps in a configuration file." This module is that
configuration file's implementation: a declarative field mapping that
turns arbitrary dict-shaped records (CSV rows, JSON log lines, kafka
payloads, …) into the :class:`FlowRecord` / :class:`DnsRecord` objects
the correlator consumes.

A mapping config is a plain dict (JSON-compatible)::

    {
        "flow": {
            "ts": {"field": "end_time", "unit": "ms"},
            "src_ip": {"field": "sa"},
            "dst_ip": {"field": "da"},
            "bytes": {"field": "ibyt", "default": 0},
            "packets": {"field": "ipkt", "default": 1},
            "src_port": {"field": "sp", "default": 0},
            "dst_port": {"field": "dp", "default": 0},
            "protocol": {"field": "pr", "default": 6}
        },
        "dns": {
            "ts": {"field": "timestamp"},
            "query": {"field": "qname"},
            "rtype": {"field": "type"},
            "ttl": {"field": "ttl"},
            "answer": {"field": "rdata"}
        }
    }

Unknown time units, missing required fields and unparseable values raise
:class:`ParseError` (or are counted when using the lenient iterators),
so a typo in the config surfaces immediately rather than as silently
uncorrelated traffic.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, TextIO, Tuple

from repro.dns.rr import RRType
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowRecord
from repro.util.errors import ConfigError, ParseError

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}

_RTYPE_ALIASES = {
    "a": RRType.A,
    "aaaa": RRType.AAAA,
    "cname": RRType.CNAME,
    "1": RRType.A,
    "28": RRType.AAAA,
    "5": RRType.CNAME,
}

_SENTINEL = object()


@dataclass(frozen=True)
class FieldSpec:
    """Where one record attribute comes from and how to convert it."""

    field: str
    unit: str = "s"  # time fields only
    default: object = _SENTINEL

    @classmethod
    def from_config(cls, raw) -> "FieldSpec":
        if isinstance(raw, str):
            return cls(field=raw)
        if isinstance(raw, Mapping):
            if "field" not in raw:
                raise ConfigError(f"field spec needs a 'field' key: {raw!r}")
            unit = raw.get("unit", "s")
            if unit not in _TIME_UNITS:
                raise ConfigError(f"unknown time unit {unit!r}")
            if "default" in raw:
                return cls(field=raw["field"], unit=unit, default=raw["default"])
            return cls(field=raw["field"], unit=unit)
        raise ConfigError(f"unparseable field spec: {raw!r}")

    def extract(self, record: Mapping):
        value = record.get(self.field, _SENTINEL)
        if value is _SENTINEL or value in ("", None):
            if self.default is _SENTINEL:
                raise ParseError(f"record is missing required field {self.field!r}")
            return self.default
        return value

    def extract_time(self, record: Mapping) -> float:
        value = self.extract(record)
        try:
            return float(value) * _TIME_UNITS[self.unit]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad timestamp in field {self.field!r}: {value!r}") from exc

    def extract_int(self, record: Mapping) -> int:
        value = self.extract(record)
        try:
            return int(value)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad integer in field {self.field!r}: {value!r}") from exc


@dataclass
class AdapterStats:
    records_in: int = 0
    records_out: int = 0
    malformed: int = 0
    skipped_rtype: int = 0


class FlowAdapter:
    """dict-records → :class:`FlowRecord`, per a declarative mapping."""

    REQUIRED = ("ts", "src_ip", "dst_ip")
    OPTIONAL_INTS = {"bytes": 0, "packets": 1, "src_port": 0, "dst_port": 0, "protocol": 6}

    def __init__(self, specs: Dict[str, FieldSpec]):
        for name in self.REQUIRED:
            if name not in specs:
                raise ConfigError(f"flow mapping is missing required field {name!r}")
        self.specs = specs
        self.stats = AdapterStats()

    @classmethod
    def from_config(cls, config: Mapping) -> "FlowAdapter":
        return cls({name: FieldSpec.from_config(raw) for name, raw in config.items()})

    def adapt(self, record: Mapping) -> FlowRecord:
        """Convert one record; raises ParseError on malformed input."""
        self.stats.records_in += 1
        ts = self.specs["ts"].extract_time(record)
        src_ip = str(self.specs["src_ip"].extract(record))
        dst_ip = str(self.specs["dst_ip"].extract(record))
        ints = {}
        for name, default in self.OPTIONAL_INTS.items():
            spec = self.specs.get(name)
            ints[name] = spec.extract_int(record) if spec is not None else default
        try:
            flow = FlowRecord(
                ts=ts,
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=ints["src_port"],
                dst_port=ints["dst_port"],
                protocol=ints["protocol"],
                packets=ints["packets"],
                bytes_=ints["bytes"],
            )
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        self.stats.records_out += 1
        return flow

    def adapt_many(self, records: Iterable[Mapping]) -> Iterator[FlowRecord]:
        """Lenient bulk conversion: malformed records are counted, not raised."""
        for record in records:
            try:
                yield self.adapt(record)
            except ParseError:
                self.stats.malformed += 1


class DnsAdapter:
    """dict-records → :class:`DnsRecord` (A/AAAA/CNAME only)."""

    REQUIRED = ("ts", "query", "rtype", "ttl", "answer")

    def __init__(self, specs: Dict[str, FieldSpec]):
        for name in self.REQUIRED:
            if name not in specs:
                raise ConfigError(f"dns mapping is missing required field {name!r}")
        self.specs = specs
        self.stats = AdapterStats()

    @classmethod
    def from_config(cls, config: Mapping) -> "DnsAdapter":
        return cls({name: FieldSpec.from_config(raw) for name, raw in config.items()})

    def adapt(self, record: Mapping) -> Optional[DnsRecord]:
        """Convert one record; None for record types FlowDNS ignores."""
        self.stats.records_in += 1
        rtype_raw = str(self.specs["rtype"].extract(record)).strip().lower()
        rtype = _RTYPE_ALIASES.get(rtype_raw)
        if rtype is None:
            self.stats.skipped_rtype += 1
            return None
        ttl = self.specs["ttl"].extract_int(record)
        if ttl < 0:
            raise ParseError(f"negative TTL {ttl}")
        # DnsRecord.__post_init__ interns the normalized names, so the
        # raw spellings need no table entry of their own.
        out = DnsRecord(
            ts=self.specs["ts"].extract_time(record),
            query=str(self.specs["query"].extract(record)),
            rtype=rtype,
            ttl=ttl,
            answer=str(self.specs["answer"].extract(record)),
        )
        self.stats.records_out += 1
        return out

    def adapt_many(self, records: Iterable[Mapping]) -> Iterator[DnsRecord]:
        for record in records:
            try:
                adapted = self.adapt(record)
            except ParseError:
                self.stats.malformed += 1
                continue
            if adapted is not None:
                yield adapted


def load_mapping(config: Mapping) -> Tuple[Optional[DnsAdapter], Optional[FlowAdapter]]:
    """Build (dns_adapter, flow_adapter) from one config dict."""
    dns = DnsAdapter.from_config(config["dns"]) if "dns" in config else None
    flow = FlowAdapter.from_config(config["flow"]) if "flow" in config else None
    if dns is None and flow is None:
        raise ConfigError("mapping config defines neither 'dns' nor 'flow'")
    return dns, flow


def load_mapping_file(path) -> Tuple[Optional[DnsAdapter], Optional[FlowAdapter]]:
    """Load a JSON mapping config from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"mapping file {path} is not valid JSON: {exc}") from exc
    return load_mapping(config)


def iter_csv(handle: TextIO, delimiter: str = ",") -> Iterator[Dict[str, str]]:
    """Dict rows from a CSV file with a header line."""
    yield from csv.DictReader(handle, delimiter=delimiter)


def iter_jsonl(handle: TextIO) -> Iterator[Dict]:
    """Dict rows from a JSON-lines file; malformed lines are skipped."""
    for line in handle:
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict):
            yield row
