"""Table 1: FlowDNS parameters and storage names.

Asserts that the reproduction's defaults are exactly the deployed values
the paper documents, and that each named storage exists with the
described semantics.
"""

from conftest import print_rows

from repro.core.config import FlowDNSConfig
from repro.core.storage_adapter import DnsStorage
from repro.storage.rotating import Tier


def _check_table1():
    config = FlowDNSConfig()
    storage = DnsStorage(config)
    rows = [
        f"AClearUpInterval       paper=3600   measured={config.a_clear_up_interval:.0f}",
        f"CClearUpInterval       paper=7200   measured={config.c_clear_up_interval:.0f}",
        f"NUM_SPLIT              paper=10     measured={config.num_split}",
        f"CNAME loop limit       paper=6      measured={config.cname_loop_limit}",
    ]
    # Table 1's six storages: IP-NAME / NAME-CNAME × Active/Inactive/Long.
    counts = storage.entry_counts()
    for bank in ("ip_name", "name_cname"):
        for tier in Tier:
            assert tier.value in counts[bank]
    return config, rows


def test_table1_parameters():
    config, rows = _check_table1()
    print_rows("Table 1: parameters", rows)
    assert config.a_clear_up_interval == 3600.0
    assert config.c_clear_up_interval == 7200.0
    assert config.num_split == 10
    assert config.cname_loop_limit == 6
