"""Shared simulation kernel: the wake contract and the run engines.

Every top-level clocked model in the reproduction — :class:`repro.core.mac.MAC`,
:class:`repro.node.node.Node`, :class:`repro.node.system.NUMASystem` — used to
carry its own copy of the same ``_cycle`` counter, ``cycle`` property,
``done()`` predicate and ``while not done(): tick()`` loop.  This module owns
that machinery once, and adds the piece the lockstep loops could never
express: *quiescence skipping*.

One run loop, :meth:`SkipEngine.run`, drives a :class:`ClockedModel`.  After
each tick it asks the model for its earliest *wake event*
(``next_event_cycle``); a model the engine drives must answer, as there is
no default wake.  When the model reports that nothing non-uniform can
happen before cycle ``w`` (all cores blocked on an in-flight memory response,
MAC drained, fabric empty, no timeout due), the engine calls ``skip_to(w)``:
the model bulk-applies the per-cycle accounting the skipped ticks would have
performed (stall counters, idle counters, cooldown drains, strided
attribution samples) and jumps its cycle counter.  The contract — enforced
by the equivalence property tests — is that a skip is **bit-identical** to
ticking through the gap: same final cycle count, same ``metrics()``
snapshot, same attribution marks, with or without fault injection.

:class:`LockstepEngine` is the same loop with the wake probe switched off —
one ``tick()`` per cycle — kept as the oracle those tests compare against.

Engine selection:  pass an engine instance or name (``"skip"`` /
``"lockstep"``) to any ``run()``; ``None`` selects the skip engine.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.obs.observers import NO_OBSERVERS

from .watchdog import default_watchdog


class ClockedModel:
    """Base class for top-level simulations (MAC, Node, NUMASystem).

    Owns the cycle counter; subclasses implement ``done()`` and
    ``tick()``, and their ``run`` hands the model to an engine's
    :meth:`SkipEngine.run`.  A model driven by :class:`SkipEngine`
    (or probed by the watchdog's hang check) must also implement
    ``next_event_cycle`` and ``skip_to``: there is no default wake, so a
    model that forgot one fails on its first probe instead of silently
    ticking every cycle.  :class:`LockstepEngine` needs neither.
    """

    #: RuntimeError message raised when the max-cycles guard fires.
    _overrun_msg = "simulation exceeded max_cycles"

    _cycle: int = 0

    #: Observers bundle (:mod:`repro.obs.observers`); models taking an
    #: ``obs=`` argument rebind it per instance.  The engines drive its
    #: timeline and profiler.  Read-only: it never changes results.
    obs = NO_OBSERVERS

    @property
    def profiler(self):
        return self.obs.profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        # Attaching a profiler after construction swaps the bundle; the
        # engine reads the bundle at run start, so it drives this one.
        self.obs = dataclasses.replace(self.obs, profiler=profiler)

    @property
    def cycle(self) -> int:
        return self._cycle

    def done(self) -> bool:
        raise NotImplementedError

    def tick(self):
        raise NotImplementedError

    # -- quiescence skipping ------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which a non-uniform event can occur.

        Returning ``now`` disables skipping for this step; ``None`` means
        the model schedules no wake of its own (the engine then falls back
        to single-stepping, preserving lockstep behaviour — including the
        max-cycles guard — on models that would otherwise spin forever).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no wake: the skip engine and the "
            "watchdog's hang probe need next_event_cycle"
        )

    def skip_to(self, target: int) -> None:
        """Fast-forward to ``target``, bulk-applying per-cycle accounting.

        Only called by :class:`SkipEngine`, and only with
        ``self.cycle < target <= next_event_cycle(self.cycle)``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} reported a wake event but does not "
            "implement skip_to"
        )


class SkipEngine:
    """Event-wheel scheduler: fast-forwards through quiescent spans.

    Bit-identical to ticking every cycle by construction: a skip is taken
    only when the model proves, via ``next_event_cycle``, that every cycle
    in the gap would have been a no-op apart from uniform per-cycle
    accounting, which ``skip_to`` applies in bulk.
    """

    name = "skip"

    #: Probe ``next_event_cycle`` after each tick and skip to the wake.
    skipping = True

    def __init__(self, watchdog=None):
        #: Hang detector / invariant sanitizer observing each iteration
        #: (read-only; NULL_WATCHDOG unless configured — see
        #: :mod:`repro.sim.watchdog`).
        self.watchdog = watchdog if watchdog is not None else default_watchdog()

    def run(
        self,
        sim: ClockedModel,
        max_cycles: int,
        on_tick: Optional[Callable[[list], None]] = None,
    ) -> int:
        """Drive ``sim`` until ``done()``; returns the final cycle.

        ``on_tick`` receives any non-empty value returned by ``tick()``
        (the MAC emits packets from its tick).  The max-cycles budget
        counts from the cycle the run starts at.
        """
        start = sim.cycle
        limit = start + max_cycles
        skipping = self.skipping
        wd = self.watchdog
        if wd.enabled:
            wd.reset()
        obs = getattr(sim, "obs", NO_OBSERVERS)
        hooked = obs.hooked
        if hooked:
            obs.run_started(sim, self.name)
        # The wake probe runs every tick.  The per-component event wheel
        # keeps ``next_event_cycle`` O(1) on the hot models (Node tracks
        # its earliest wake incrementally instead of walking every core),
        # so probing each cycle is cheap — and it catches the short
        # quiescent pockets inside busy phases that the old exponential
        # probe backoff (probe every <=64 ticks) used to sail past.
        while not sim.done():
            out = sim.tick()
            if on_tick is not None and out:
                on_tick(out)
            cycle = sim.cycle
            if hooked:
                obs.after_tick(cycle)
            if wd.enabled:
                wd.observe(sim)
            if cycle - start > max_cycles:
                raise RuntimeError(sim._overrun_msg)
            if not skipping:
                continue
            wake = sim.next_event_cycle(cycle)
            if wake is not None and wake > cycle:
                # Never skip past the guard: ticking through the gap
                # raises with the counter at limit + 1, and so must we.
                sim.skip_to(min(wake, limit))
                if hooked:
                    obs.after_skip(sim.cycle, sim.cycle - cycle)
        if hooked:
            obs.run_finished(sim.cycle)
        if wd.enabled:
            wd.finish(sim)
        return sim.cycle


class LockstepEngine(SkipEngine):
    """One ``tick()`` per cycle: the skip loop with the wake probe off.

    The historical semantics, kept as the oracle the equivalence tests
    hold :class:`SkipEngine` to (and selectable as ``--engine lockstep``).
    """

    name = "lockstep"
    skipping = False
    # Its own class entry, so per-class wrappers (profiling spans) can
    # tell the two engines apart.
    run = SkipEngine.run


#: Engine registry, keyed by CLI-facing name.
ENGINES = {
    SkipEngine.name: SkipEngine,
    LockstepEngine.name: LockstepEngine,
}

DEFAULT_ENGINE = SkipEngine.name


def engine_names() -> List[str]:
    """CLI-facing engine names, default first."""
    return sorted(ENGINES, key=lambda n: n != DEFAULT_ENGINE)


def get_engine(spec=None):
    """Resolve an engine instance from a name or instance.

    ``None`` selects :data:`DEFAULT_ENGINE` (skip).  Unknown names raise
    ``ValueError``.
    """
    if spec is None:
        spec = DEFAULT_ENGINE
    if isinstance(spec, str):
        try:
            return ENGINES[spec]()
        except KeyError:
            raise ValueError(
                f"unknown simulation engine {spec!r} "
                f"(choose from {', '.join(sorted(ENGINES))})"
            ) from None
    if hasattr(spec, "run"):
        return spec
    raise TypeError(f"engine must be a name or engine instance, got {spec!r}")

