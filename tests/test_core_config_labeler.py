"""Tests for repro.core.config."""

import pytest

from repro.core.config import (
    DEFAULT_A_CLEAR_UP_INTERVAL,
    DEFAULT_C_CLEAR_UP_INTERVAL,
    DEFAULT_CNAME_LOOP_LIMIT,
    DEFAULT_NUM_SPLIT,
    FlowDNSConfig,
)
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

