"""Unified simulation kernel (DESIGN.md section 10).

Shared clocking machinery for every closed-loop model: the
:class:`Clocked` component protocol, the :class:`ClockedModel` base class
(cycle counter + run loop, deduplicated out of ``MAC``, ``Node`` and
``NUMASystem``) and its one run loop — :class:`SkipEngine` (quiescence
detection + fast-forward to the next wake event, the default) and
:class:`LockstepEngine` (the same loop ticking every cycle, the test
oracle), which are bit-identical by contract.
"""

from .kernel import (
    DEFAULT_ENGINE,
    ENGINES,
    WAKE_PROTOCOL_REGISTRY,
    Clocked,
    ClockedModel,
    LockstepEngine,
    SkipEngine,
    engine_names,
    get_engine,
    register_wake_protocol,
    wake_protocol_offenders,
)
from .pdes import (
    SHARDS_ENV_VAR,
    ShardCrash,
    ShardError,
    ShardFallback,
    ShardReport,
    resolve_shards,
    run_sharded,
)
from .watchdog import (
    CHECK_ENV_VAR,
    NULL_WATCHDOG,
    WATCHDOG_ENV_VAR,
    InvariantViolation,
    SimulationHang,
    Watchdog,
    default_watchdog,
    sanitize_enabled,
)

__all__ = [
    "Clocked",
    "ClockedModel",
    "WAKE_PROTOCOL_REGISTRY",
    "register_wake_protocol",
    "wake_protocol_offenders",
    "LockstepEngine",
    "SkipEngine",
    "ENGINES",
    "DEFAULT_ENGINE",
    "engine_names",
    "get_engine",
    "SHARDS_ENV_VAR",
    "ShardCrash",
    "ShardError",
    "ShardFallback",
    "ShardReport",
    "resolve_shards",
    "run_sharded",
    "Watchdog",
    "NULL_WATCHDOG",
    "SimulationHang",
    "InvariantViolation",
    "CHECK_ENV_VAR",
    "WATCHDOG_ENV_VAR",
    "default_watchdog",
    "sanitize_enabled",
]
