"""Design-choice ablations beyond the paper's four variants.

* ConcurrentMap shard count (the Go concurrent-map default is 32);
* labeler choice: hashed (the production CRC-32 label, and the FNV-1a
  over packed address bytes it replaced) vs last-octet split balance;
* CNAME loop-limit sensitivity (the paper chose 6).
"""

import ipaddress

import pytest

from conftest import print_rows

from repro.analysis import run_variant
from repro.core.config import FlowDNSConfig
from repro.core.labeler import ip_label, last_octet_label
from repro.core.variants import Variant
from repro.storage.concurrent_map import ConcurrentMap
from repro.workloads.isp import large_isp


def _fnv1a_label(ip: str) -> int:
    """The comparator: 32-bit FNV-1a over the packed address bytes."""
    h = 0x811C9DC5
    for byte in ipaddress.ip_address(ip).packed:
        h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
    return h


@pytest.mark.parametrize("shards", [1, 4, 16, 64])
def test_ablation_shard_count_insert_lookup(benchmark, shards):
    keys = [f"10.{i % 200}.{i % 250}.{i % 100}" for i in range(5000)]

    def work():
        cmap = ConcurrentMap(shard_count=shards)
        for key in keys:
            cmap.set(key, "name")
        hits = sum(1 for key in keys if cmap.get(key) is not None)
        return hits

    hits = benchmark(work)
    assert hits == len(keys)


def test_ablation_labeler_balance(benchmark):
    """Hash labels spread a dense CDN /24 pool; last-octet labels do too,
    but collapse when providers number hosts identically across /24s."""

    pool_dense = [f"198.51.100.{i}" for i in range(1, 255)]
    pool_same_host = [f"10.{i}.0.7" for i in range(200)]

    def spreads():
        out = {}
        for name, pool in (("dense /24", pool_dense), ("same host id", pool_same_host)):
            out[name] = tuple(
                len({label(ip) % 10 for ip in pool})
                for label in (ip_label, _fnv1a_label, last_octet_label)
            )
        return out

    result = benchmark.pedantic(spreads, rounds=1, iterations=1)
    rows = [
        f"{name:<14s} crc32-splits={c:2d}/10  fnv1a-splits={f:2d}/10  "
        f"last-octet-splits={o:2d}/10"
        for name, (c, f, o) in result.items()
    ]
    print_rows("Ablation: labeler split balance", rows)
    for pool in ("dense /24", "same host id"):
        assert result[pool][0] == 10
        assert result[pool][1] == 10
    assert result["same host id"][2] == 1  # the failure mode hashing avoids


@pytest.mark.parametrize("loop_limit", [1, 3, 6, 10])
def test_ablation_loop_limit(benchmark, loop_limit):
    """Correlation is insensitive above ~6 (the paper's chain ECDF)."""

    def run():
        workload = large_isp(seed=31, duration=3600.0, n_benign=400)
        config = FlowDNSConfig(cname_loop_limit=loop_limit)
        return run_variant(workload, Variant.MAIN, base_config=config).report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    # Store per-limit results on the module for the final comparison.
    _RESULTS[loop_limit] = report.correlation_rate
    assert report.correlation_rate > 0.5
    if 6 in _RESULTS and 10 in _RESULTS:
        assert abs(_RESULTS[10] - _RESULTS[6]) < 0.005
        print_rows(
            "Ablation: CNAME loop limit",
            [f"limit={k:<3d} correlation={v:.4f}" for k, v in sorted(_RESULTS.items())],
        )


_RESULTS = {}
