"""Prefix-trie lookup rate (Section 5's IP→origin-AS correlation).

Recorded gate-free: absolute trie walk rates on a 1-CPU shared runner
are noise, the number is trajectory data.
"""

import time

from repro.bgp.prefix_trie import PrefixTrie
from repro.util.benchio import record_bench


def _timed(fn, repeats=5):
    """Best-of-N wall time — the same anti-flake scheme the other gates use."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_prefix_trie_lookup_rate_reported():
    """Report (not gate) trie lookup rates with and without the memo.

    Section 5 correlates FlowDNS output with BGP origin-AS data at flow
    rate; the integer-shift walk plus ``lookup_many``'s bounded memo are
    what keep that viable. Recorded only: absolute rates and even the
    memo ratio depend on pool size vs corpus length, and no product
    decision hangs on a threshold here.
    """
    trie = PrefixTrie()
    for i in range(256):
        trie.insert(f"10.{i}.0.0/16", 64500 + i)
        trie.insert(f"10.{i}.128.0/17", 65000 + i)
    addresses = [f"10.{i % 256}.{(i * 7) % 200}.{i % 250 + 1}" for i in range(200)]
    corpus = addresses * 40  # flow streams repeat hot addresses

    expected = [trie.lookup(a) for a in addresses] * 40

    def per_address():
        return [trie.lookup(a) for a in corpus]

    def batched():
        return trie.lookup_many(corpus)

    assert per_address() == batched() == expected
    t_single = _timed(per_address)
    t_batch = _timed(batched)
    record_bench("prefix_trie_lookups_per_sec", round(len(corpus) / t_single))
    record_bench("prefix_trie_lookup_many_per_sec", round(len(corpus) / t_batch))
    record_bench("prefix_trie_memo_speedup", round(t_single / t_batch, 2))
    print(f"\ntrie: {len(corpus) / t_single:,.0f} walks/s, "
          f"{len(corpus) / t_batch:,.0f} memoised/s "
          f"({t_single / t_batch:.1f}x)")
