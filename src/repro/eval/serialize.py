"""Configuration serialization for reproducible runs.

Experiments are parameterized by frozen dataclass configs; this module
round-trips them through tagged plain dicts (JSON-ready) so runs can be
archived and replayed exactly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.core.config import MACConfig, SystemConfig
from repro.ddr.device import DDRConfig
from repro.ddr.timing import DDRTiming
from repro.hbm.config import HBMConfig
from repro.hbm.timing import HBMTiming
from repro.hmc.config import HMCConfig
from repro.hmc.timing import HMCTiming

#: Registry of serializable config types, keyed by their class name.
CONFIG_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        MACConfig,
        SystemConfig,
        HMCConfig,
        HMCTiming,
        HBMConfig,
        HBMTiming,
        DDRConfig,
        DDRTiming,
    )
}


def config_to_dict(config: Any) -> Dict[str, Any]:
    """Dataclass config -> tagged plain dict (nested configs recurse)."""
    if type(config).__name__ not in CONFIG_TYPES:
        raise TypeError(f"{type(config).__name__} is not a registered config type")
    out: Dict[str, Any] = {"__type__": type(config).__name__}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if type(value).__name__ in CONFIG_TYPES:
            value = config_to_dict(value)
        out[f.name] = value
    return out


def config_from_dict(data: Dict[str, Any]) -> Any:
    """Tagged dict -> config instance (validates via __post_init__)."""
    data = dict(data)
    name = data.pop("__type__", None)
    if name is None or name not in CONFIG_TYPES:
        raise ValueError(f"not a serialized config: missing/unknown __type__ {name!r}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, dict) and "__type__" in value:
            value = config_from_dict(value)
        kwargs[key] = value
    return CONFIG_TYPES[name](**kwargs)
