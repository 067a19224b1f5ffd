"""Wall-clock self-profiling of the simulator itself.

The timeline (:mod:`repro.obs.timeline`) resolves *simulated* time; this
module resolves *host* time: where do the wall seconds of a run go, and
how hard are the accelerating subsystems actually working?  The profiler
collects, per driving loop:

* tick and skip counts, executed vs skipped cycles (the skip-engine's
  effectiveness as a ratio, not an anecdote);
* under the sharded-PDES backend, per-shard busy wall-seconds and window
  counts reported at each barrier, from which the parent derives barrier
  wait (window wall time minus the busiest shard).

Results export two ways: :meth:`SimProfiler.metrics` — a flat ``sim.*``
namespace printed by ``repro run --profile`` and merged into
``--metrics-out`` (only under ``--profile``, so wall-clock noise never
pollutes determinism diffs) — and :meth:`SimProfiler.chrome_events`, a
separate Chrome-trace *process lane* (pid 1000, named ``sim``) merged
into ``--trace-out`` documents so simulated-time events and host-time
windows line up in one Perfetto view.

Off by default via the usual NULL-object pattern: engines read
``getattr(sim, "profiler", NULL_PROFILER)`` and gate every hook on
``enabled``, so the unprofiled hot path pays one attribute check per
loop, not per tick.
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

    def note_window(self, wall_s: float, busy_s: List[float]) -> None:
        """Ignore the PDES window."""

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
        "windows",
        "barrier_wait_s",
        "shard_busy_s",
        "_window_spans",
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
        #: PDES barrier accounting (zero when the run was serial).
        self.windows = 0
        self.barrier_wait_s = 0.0
        self.shard_busy_s: Dict[int, float] = {}
        #: (start_s, end_s) wall spans of each PDES window, for the
        #: Chrome lane (relative to run start).
        self._window_spans: List[tuple] = []
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

    # -- PDES hooks (parent side) --------------------------------------------

    def note_window(self, wall_s: float, busy_s: List[float]) -> None:
        """Record one window barrier: parent wall time vs shard busy time.

        ``busy_s`` is each shard's *cumulative* busy seconds; barrier
        wait for this window is its wall time minus the busiest shard's
        increment (the conservative window cannot close faster than its
        slowest worker).
        """
        self.windows += 1
        prev = dict(self.shard_busy_s)
        for s, total in enumerate(busy_s):
            self.shard_busy_s[s] = total
        incr = [
            self.shard_busy_s[s] - prev.get(s, 0.0)
            for s in range(len(busy_s))
        ]
        self.barrier_wait_s += max(0.0, wall_s - max(incr, default=0.0))
        now = time.perf_counter()
        start = (now - self._t0 - wall_s) if self._t0 else 0.0
        self._window_spans.append((max(0.0, start), wall_s))

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
        out: Dict[str, Any] = {
            "sim.engine": self.engine,
            "sim.ticks": self.ticks,
            "sim.skips": self.skips,
            "sim.executed_cycles": self.executed_cycles,
            "sim.skipped_cycles": self.skipped_cycles,
            "sim.skip_ratio": self.skip_ratio,
            "sim.final_cycle": self.final_cycle,
            "sim.wall_s": self.wall_s,
        }
        if self.windows:
            out["sim.pdes.windows"] = self.windows
            out["sim.pdes.barrier_wait_s"] = self.barrier_wait_s
            busy_total = sum(self.shard_busy_s.values())
            for s in sorted(self.shard_busy_s):
                out[f"sim.pdes.shard{s}.busy_s"] = self.shard_busy_s[s]
            # Utilization: busy seconds over the wall-clock each shard
            # had available (shards run concurrently, so the budget is
            # wall_s per shard, not wall_s total).
            if self.wall_s and self.shard_busy_s:
                out["sim.pdes.utilization"] = busy_total / (
                    self.wall_s * len(self.shard_busy_s)
                )
        return out

    def chrome_events(self, pid: int = 1000) -> List[Dict[str, Any]]:
        """Chrome-trace events for the ``sim`` process lane.

        Host-time spans (microseconds): one ``X`` for the whole run,
        one per PDES window, plus a summary instant carrying
        :meth:`metrics` as args.  Merged into the tracer's document by
        ``repro run --trace-out --profile``.
        """
        events: List[Dict[str, Any]] = [
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
        ]
        for i, (start, dur) in enumerate(self._window_spans):
            events.append(
                {
                    "name": f"window {i}",
                    "cat": "sim.pdes",
                    "ph": "X",
                    "ts": int(start * 1e6),
                    "dur": max(1, int(dur * 1e6)),
                    "pid": pid,
                    "tid": 2,
                }
            )
        events.append(
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
            }
        )
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimProfiler(ticks={self.ticks}, skips={self.skips}, "
            f"skip_ratio={self.skip_ratio:.2f}, wall={self.wall_s:.3f}s)"
        )
