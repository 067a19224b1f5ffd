"""One bundle of instruments, attached once and driven by the engines.

Components take a single ``obs=`` argument and bind ``obs.tracer`` and
``obs.attrib`` into their own attributes at construction (hot paths pay
no extra lookup); every driving loop pumps the timeline and profiler
through the four hooks below (DESIGN.md section 9).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from .attribution import NULL_ATTRIBUTION
from .profiler import NULL_PROFILER
from .timeline import NULL_TIMELINE
from .tracer import NULL_TRACER

__all__ = ["Observers", "NO_OBSERVERS"]


@dataclasses.dataclass(frozen=True)
class Observers:
    """Tracer, attribution, timeline and profiler; each NULL by default."""

    tracer: Any = NULL_TRACER
    attrib: Any = NULL_ATTRIBUTION
    timeline: Any = NULL_TIMELINE
    profiler: Any = NULL_PROFILER

    @property
    def hooked(self) -> bool:
        """True when the engine hooks have work; callers gate them on it."""
        return self.timeline.enabled or self.profiler.enabled

    def run_started(self, model, engine: str = "") -> None:
        """Bind the timeline to ``model``'s probes; start the profiler."""
        if self.timeline.enabled:
            self.timeline.bind(model)
        self.profiler.run_started(engine)

    def after_tick(self, cycle: int) -> None:
        if self.timeline.enabled:
            self.timeline.pump(cycle)
        self.profiler.note_tick()

    def after_skip(self, cycle: int, skipped: int) -> None:
        # A boundary landing exactly on the skip target is sampled here,
        # before the next tick: the order ticking through the gap gives.
        if self.timeline.enabled:
            self.timeline.pump(cycle)
        self.profiler.note_skip(skipped)

    def run_finished(self, cycle: int) -> None:
        if self.timeline.enabled:
            self.timeline.finish(cycle)
        self.profiler.run_finished(cycle)


#: The shared all-NULL bundle every component defaults to.
NO_OBSERVERS = Observers()
