"""The paper's benchmark variants (Section 4 and Appendix A.8).

Each variant removes exactly one technique from the fully featured
system:

* **Main** — everything on (the deployed configuration);
* **No Split** — hashmaps (and queues) are not divided into splits.
  This reproduction's store is never split (one thread owns it), so the
  variant differs from Main only in the simulation's cost model;
* **No Clear-Up** — hashmaps are kept in memory forever;
* **No Rotation** — hashmaps are cleared, but no Inactive copy is kept;
* **No Long Hashmaps** — large-TTL records land in Active like the rest;
* **Exact TTL** — per-record TTL expiry with periodic sweeps
  (Appendix A.8's rejected design; not part of Figure 3's four but
  needed for the A.8 experiment).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, List, Optional

from repro.core.config import EngineConfig, FlowDNSConfig


class Variant(Enum):
    MAIN = "main"
    NO_SPLIT = "no-split"
    NO_CLEAR_UP = "no-clear-up"
    NO_ROTATION = "no-rotation"
    NO_LONG = "no-long"
    EXACT_TTL = "exact-ttl"


#: The four ablations Figure 3 plots against Main.
FIGURE3_VARIANTS = (
    Variant.MAIN,
    Variant.NO_CLEAR_UP,
    Variant.NO_LONG,
    Variant.NO_ROTATION,
    Variant.NO_SPLIT,
)

#: Figure 7 drops No Split ("complete overlap with the Main benchmark").
FIGURE7_VARIANTS = (
    Variant.NO_CLEAR_UP,
    Variant.MAIN,
    Variant.NO_LONG,
    Variant.NO_ROTATION,
)


#: Engine implementations, for CLI/embedding selection. ``simulation``
#: replays flat record iterables deterministically with modelled
#: resources; ``async`` takes sequences of stream sources and runs the
#: single-loop asyncio pipeline whose sources may also be live
#: loopback/network listeners (NetFlow over UDP, DNS over TCP).
ENGINE_VARIANTS = {
    "simulation": "deterministic single-threaded replay, modelled resources",
    "async": "asyncio pipeline with live UDP/TCP socket ingest",
}


def engine_for(
    name: str,
    config: Optional[FlowDNSConfig | EngineConfig] = None,
    sink=None,
):
    """Instantiate an engine variant by registry name.

    ``config`` may be a bare :class:`FlowDNSConfig` (correlator knobs
    only) or a full :class:`EngineConfig` (runtime knobs too); every
    engine normalises via :meth:`EngineConfig.of`. Note the run()
    signatures differ: ``simulation`` consumes flat record iterables;
    ``async`` consumes sequences of sources and takes ``dns_first=True``
    for deterministic DNS-before-flows ordering.
    """
    engine_config = EngineConfig.of(config)
    if name == "simulation":
        from repro.core.simulation import SimulationEngine

        return SimulationEngine(engine_config.flowdns, sink=sink)
    if name == "async":
        from repro.core.async_engine import AsyncEngine

        return AsyncEngine(engine_config, sink=sink)
    raise ValueError(f"unknown engine {name!r}; known: {sorted(ENGINE_VARIANTS)}")


def config_for(variant: Variant, base: Optional[FlowDNSConfig] = None) -> FlowDNSConfig:
    """Derive a variant's config from a base (default: paper defaults)."""
    base = base if base is not None else FlowDNSConfig()
    if variant == Variant.MAIN:
        return base.replace(
            split_enabled=True,
            clear_up_enabled=True,
            rotation_enabled=True,
            long_enabled=True,
            exact_ttl=False,
        )
    if variant == Variant.NO_SPLIT:
        return base.replace(split_enabled=False, exact_ttl=False)
    if variant == Variant.NO_CLEAR_UP:
        return base.replace(clear_up_enabled=False, exact_ttl=False)
    if variant == Variant.NO_ROTATION:
        return base.replace(rotation_enabled=False, exact_ttl=False)
    if variant == Variant.NO_LONG:
        return base.replace(long_enabled=False, exact_ttl=False)
    if variant == Variant.EXACT_TTL:
        return base.replace(exact_ttl=True)
    raise ValueError(f"unknown variant {variant!r}")


def configs_for(
    variants: Iterable[Variant], base: Optional[FlowDNSConfig] = None
) -> List[FlowDNSConfig]:
    return [config_for(v, base) for v in variants]
