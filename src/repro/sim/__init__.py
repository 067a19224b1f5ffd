"""Unified simulation kernel (DESIGN.md section 10).

Shared clocking machinery for every closed-loop model: the
:class:`ClockedModel` base class (cycle counter + run loop, deduplicated
out of ``MAC``, ``Node`` and ``NUMASystem``, and the one wake contract:
a model the skip engine drives implements ``next_event_cycle`` and
``skip_to``, with no default) and its one run loop — :class:`SkipEngine`
(quiescence detection + fast-forward to the next wake event, the
default) and :class:`LockstepEngine` (the same loop ticking every
cycle, the test oracle), which are bit-identical by contract.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    kernel=(
        "DEFAULT_ENGINE", "ENGINES", "ClockedModel", "LockstepEngine",
        "SkipEngine", "engine_names", "get_engine",
    ),
    watchdog=(
        "CHECK_ENV_VAR", "NULL_WATCHDOG", "WATCHDOG_ENV_VAR", "InvariantViolation",
        "SimulationHang", "Watchdog", "default_watchdog", "sanitize_enabled",
    ),
)

__all__ = [
    "ClockedModel",
    "LockstepEngine",
    "SkipEngine",
    "ENGINES",
    "DEFAULT_ENGINE",
    "engine_names",
    "get_engine",
    "Watchdog",
    "NULL_WATCHDOG",
    "SimulationHang",
    "InvariantViolation",
    "CHECK_ENV_VAR",
    "WATCHDOG_ENV_VAR",
    "default_watchdog",
    "sanitize_enabled",
]
