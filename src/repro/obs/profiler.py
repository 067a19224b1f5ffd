"""Wall-clock self-profiling of the simulator itself.

The timeline (:mod:`repro.obs.timeline`) resolves *simulated* time; this
module resolves *host* time: where do the wall seconds of a run go, and
how hard are the accelerating subsystems actually working?  The profiler
collects, per driving loop:

* tick and skip counts, executed vs skipped cycles (the skip-engine's
  effectiveness as a ratio, not an anecdote);
* the wall seconds of the run.

Results export two ways: :meth:`SimProfiler.metrics` — a flat ``sim.*``
namespace printed by ``repro run --profile`` and merged into
``--metrics-out`` (only under ``--profile``, so wall-clock noise never
pollutes determinism diffs) — and :meth:`SimProfiler.chrome_events`, a
separate Chrome-trace *process lane* (pid 1000, named ``sim``) merged
into ``--trace-out`` documents so simulated-time events and the host-time
run line up in one Perfetto view.

Off by default via the usual NULL-object pattern: engines drive it
through the model's :class:`repro.obs.observers.Observers` bundle and
gate every hook on one flag read at run start, so the unprofiled hot
path pays one check per tick and no call.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

__all__ = ["NullProfiler", "SimProfiler", "NULL_PROFILER"]


class NullProfiler:
    """The no-op profiler every engine sees by default."""

    __slots__ = ()
    enabled = False

    def run_started(self, engine: str = "") -> None:
        """Ignore the run start."""

    def note_tick(self) -> None:
        """Ignore the tick."""

    def note_skip(self, cycles: int) -> None:
        """Ignore the skip."""

    def run_finished(self, cycle: int) -> None:
        """Ignore the run end."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullProfiler()"


#: Shared no-op instance.
NULL_PROFILER = NullProfiler()


class SimProfiler:
    """Mutable accumulator for one (or several chained) driving loops."""

    __slots__ = (
        "enabled",
        "engine",
        "ticks",
        "skips",
        "skipped_cycles",
        "final_cycle",
        "wall_s",
        "_t0",
    )

    def __init__(self) -> None:
        self.enabled = True
        self.engine = ""
        self.ticks = 0
        self.skips = 0
        self.skipped_cycles = 0
        self.final_cycle = 0
        self.wall_s = 0.0
        self._t0 = 0.0

    # -- engine hooks --------------------------------------------------------

    def run_started(self, engine: str = "") -> None:
        if engine:
            self.engine = engine
        if not self._t0:
            self._t0 = time.perf_counter()

    def note_tick(self) -> None:
        self.ticks += 1

    def note_skip(self, cycles: int) -> None:
        if cycles > 0:
            self.skips += 1
            self.skipped_cycles += cycles

    def run_finished(self, cycle: int) -> None:
        if self._t0:
            self.wall_s += time.perf_counter() - self._t0
            self._t0 = 0.0
        self.final_cycle = max(self.final_cycle, cycle)

    # -- export --------------------------------------------------------------

    @property
    def executed_cycles(self) -> int:
        return self.ticks

    @property
    def skip_ratio(self) -> float:
        """Fraction of simulated cycles the engine never ticked."""
        total = self.ticks + self.skipped_cycles
        return self.skipped_cycles / total if total else 0.0

    def metrics(self) -> Dict[str, Any]:
        """Flat ``sim.*`` metrics namespace for ``--profile`` output."""
        return {
            "sim.engine": self.engine,
            "sim.ticks": self.ticks,
            "sim.skips": self.skips,
            "sim.executed_cycles": self.executed_cycles,
            "sim.skipped_cycles": self.skipped_cycles,
            "sim.skip_ratio": self.skip_ratio,
            "sim.final_cycle": self.final_cycle,
            "sim.wall_s": self.wall_s,
        }

    def chrome_events(self, pid: int = 1000) -> List[Dict[str, Any]]:
        """Chrome-trace events for the ``sim`` process lane.

        Host-time spans (microseconds): one ``X`` for the whole run,
        plus a summary instant carrying :meth:`metrics` as args.  Merged
        into the tracer's document by ``repro run --trace-out --profile``.
        """
        return [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "sim (self-profile, host time)"},
            },
            {
                "name": f"run ({self.engine or 'serial'})",
                "cat": "sim",
                "ph": "X",
                "ts": 0,
                "dur": int(self.wall_s * 1e6),
                "pid": pid,
                "tid": 1,
            },
            {
                "name": "profile",
                "cat": "sim",
                "ph": "i",
                "ts": int(self.wall_s * 1e6),
                "pid": pid,
                "tid": 1,
                "s": "p",
                "args": {
                    k: v for k, v in self.metrics().items()
                    if isinstance(v, (int, float, str))
                },
            },
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimProfiler(ticks={self.ticks}, skips={self.skips}, "
            f"skip_ratio={self.skip_ratio:.2f}, wall={self.wall_s:.3f}s)"
        )
