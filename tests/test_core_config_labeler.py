"""Tests for repro.core.config and repro.core.labeler."""

import ipaddress

import pytest

from repro.core.config import (
    DEFAULT_A_CLEAR_UP_INTERVAL,
    DEFAULT_C_CLEAR_UP_INTERVAL,
    DEFAULT_CNAME_LOOP_LIMIT,
    DEFAULT_NUM_SPLIT,
    FlowDNSConfig,
)
from repro.core.labeler import ip_label, last_octet_label, name_label
from repro.util.errors import ConfigError


class TestTable1Defaults:
    """Table 1 / Appendix A.6: the deployed parameter values."""

    def test_a_clear_up_interval(self):
        assert FlowDNSConfig().a_clear_up_interval == 3600.0 == DEFAULT_A_CLEAR_UP_INTERVAL

    def test_c_clear_up_interval(self):
        assert FlowDNSConfig().c_clear_up_interval == 7200.0 == DEFAULT_C_CLEAR_UP_INTERVAL

    def test_num_split(self):
        assert FlowDNSConfig().num_split == 10 == DEFAULT_NUM_SPLIT

    def test_loop_limit(self):
        assert FlowDNSConfig().cname_loop_limit == 6 == DEFAULT_CNAME_LOOP_LIMIT

    def test_all_mechanisms_enabled_by_default(self):
        config = FlowDNSConfig()
        assert config.split_enabled and config.clear_up_enabled
        assert config.rotation_enabled and config.long_enabled
        assert not config.exact_ttl


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a_clear_up_interval": 0},
            {"c_clear_up_interval": -1},
            {"num_split": 0},
            {"cname_loop_limit": 0},
            {"engine_batch_size": 0},
            {"max_entries_per_map": -1},
            {"stream_buffer_capacity": 0},
            {"exact_ttl_sweep_interval": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            FlowDNSConfig(**kwargs)


class TestEffectiveNumSplit:
    def test_enabled(self):
        assert FlowDNSConfig(num_split=10).effective_num_split == 10

    def test_disabled_is_one(self):
        config = FlowDNSConfig(num_split=10, split_enabled=False)
        assert config.effective_num_split == 1


class TestReplace:
    def test_replace_returns_modified_copy(self):
        base = FlowDNSConfig()
        changed = base.replace(num_split=5)
        assert changed.num_split == 5
        assert base.num_split == 10


class TestIpLabel:
    def test_deterministic(self):
        assert ip_label("10.0.0.1") == ip_label("10.0.0.1")

    def test_accepts_address_objects(self):
        assert ip_label(ipaddress.ip_address("10.0.0.1")) == ip_label("10.0.0.1")

    def test_ipv6_supported(self):
        assert isinstance(ip_label("2001:db8::1"), int)

    def test_spreads_over_splits(self):
        """A /24's hosts must not all land in one split (the reason the
        default labeler hashes instead of using the last octet)."""
        labels = {ip_label(f"198.51.100.{i}") % 10 for i in range(1, 255)}
        assert len(labels) == 10

    def test_differs_from_last_octet_on_dense_pools(self):
        same_last_octet = [f"10.{i}.0.7" for i in range(50)]
        hashed = {ip_label(ip) % 10 for ip in same_last_octet}
        last = {last_octet_label(ip) % 10 for ip in same_last_octet}
        assert len(last) == 1  # all 7
        assert len(hashed) > 1


class TestNameLabel:
    def test_deterministic(self):
        assert name_label("edge.cdn.net") == name_label("edge.cdn.net")

    def test_distinct_names_spread(self):
        labels = {name_label(f"e{i}.cdn.net") % 10 for i in range(200)}
        assert len(labels) == 10


class TestLastOctetLabel:
    def test_is_final_byte(self):
        assert last_octet_label("10.0.0.77") == 77
        assert last_octet_label("2001:db8::ff") == 0xFF
