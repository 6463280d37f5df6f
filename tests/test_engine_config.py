"""EngineConfig: construction, normalisation, and CLI flag interpretation.

The PR-6 API contract: every engine constructor accepts an EngineConfig
(or a bare FlowDNSConfig, or None), and *all* per-engine CLI flag
validation lives in ``EngineConfig.from_args`` — presence-based, with no
sentinel machinery left in ``cli.py``.
"""

import argparse

import pytest

from repro.core.config import (
    DEFAULT_FLOW_PORT,
    DEFAULT_LIVE_HOST,
    EngineConfig,
    FlowDNSConfig,
)
from repro.util.errors import ConfigError


def ns(**kw):
    """An argparse-like namespace with None for anything unset."""
    return argparse.Namespace(**kw)


class TestOf:
    def test_none_gives_defaults(self):
        ec = EngineConfig.of(None)
        assert isinstance(ec.flowdns, FlowDNSConfig)
        assert ec.duration == 0.0

    def test_flowdns_config_is_wrapped(self):
        fc = FlowDNSConfig(num_split=3)
        ec = EngineConfig.of(fc)
        assert ec.flowdns is fc

    def test_engine_config_passes_through(self):
        ec = EngineConfig(duration=2.0)
        assert EngineConfig.of(ec) is ec

    def test_replace_returns_modified_copy(self):
        ec = EngineConfig()
        ec2 = ec.replace(duration=4.0)
        assert ec2.duration == 4.0
        assert ec.duration == 0.0

    @pytest.mark.parametrize("kw", [
        {"snapshot_interval": 0.0},
        {"stats_interval": -1.0},
        {"metrics_port": -1},
        {"duration": -1.0},
        {"recv_buffer_bytes": -1},
        {"speed": 0.0},
    ])
    def test_invalid_fields_rejected(self, kw):
        with pytest.raises(ConfigError):
            EngineConfig(**kw)


class TestEnginesAcceptEngineConfig:
    """Engine constructors take EngineConfig directly."""

    def test_async(self):
        from repro.core.async_engine import AsyncEngine

        ec = EngineConfig(flowdns=FlowDNSConfig(num_split=5))
        engine = AsyncEngine(ec)
        assert engine.engine_config is ec
        assert engine.config.num_split == 5

    def test_bare_flowdns_config_still_works(self):
        from repro.core.async_engine import AsyncEngine

        fc = FlowDNSConfig(num_split=2)
        engine = AsyncEngine(fc)
        assert engine.config is fc
        assert engine.engine_config.flowdns is fc


class TestFromArgs:
    """The CLI flag matrix, exercised without argparse."""

    def _live_ns(self, **kw):
        base = dict(host=None, flow_port=None, dns_port=None, duration=None,
                    capture=None)
        base.update(kw)
        return ns(**base)

    def test_serve_defaults(self):
        ec = EngineConfig.from_args(self._live_ns(), "serve")
        assert ec.host == DEFAULT_LIVE_HOST
        assert ec.flow_port == DEFAULT_FLOW_PORT
        assert ec.duration == 0.0

    def test_capture_default_duration_is_bounded(self):
        ec = EngineConfig.from_args(
            self._live_ns(scenario=None, seed=None), "capture"
        )
        assert ec.duration == 60.0

    def test_speed_requires_realtime_even_at_default_value(self):
        # Presence-based: --speed 1.0 without --realtime is still an
        # explicitly-passed flag the run would ignore.
        args = ns(engine="async", speed=1.0, realtime=False)
        with pytest.raises(ConfigError, match="--realtime"):
            EngineConfig.from_args(args, "replay")

    def test_speed_with_realtime_accepted(self):
        args = ns(engine="async", speed=2.0, realtime=True)
        ec = EngineConfig.from_args(args, "replay")
        assert ec.speed == 2.0 and ec.realtime is True

    def test_nonpositive_speed_rejected(self):
        args = ns(engine="async", speed=-1.0, realtime=True)
        with pytest.raises(ConfigError, match="--speed must be positive"):
            EngineConfig.from_args(args, "replay")

    def test_scenario_rejects_explicit_live_flags(self):
        args = self._live_ns(scenario="bursts", seed=None, duration=5.0)
        with pytest.raises(ConfigError, match="--duration only applies"):
            EngineConfig.from_args(args, "capture")

    def test_seed_requires_scenario(self):
        args = self._live_ns(scenario=None, seed=42)
        with pytest.raises(ConfigError, match="--seed only applies"):
            EngineConfig.from_args(args, "capture")

    def test_exact_ttl_reaches_flowdns_config(self):
        args = ns(engine="async", exact_ttl=True)
        assert EngineConfig.from_args(args, "replay").flowdns.exact_ttl is True
