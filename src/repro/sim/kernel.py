"""Shared simulation kernel: the ``Clocked`` protocol and run engines.

Every top-level clocked model in the reproduction — :class:`repro.core.mac.MAC`,
:class:`repro.node.node.Node`, :class:`repro.node.system.NUMASystem` — used to
carry its own copy of the same ``_cycle`` counter, ``cycle`` property,
``done()`` predicate and ``while not done(): tick()`` loop.  This module owns
that machinery once, and adds the piece the lockstep loops could never
express: *quiescence skipping*.

One run loop, :meth:`SkipEngine.run`, drives a :class:`ClockedModel`.  After
each tick it asks the model for its earliest *wake event*
(``next_event_cycle``).  When the model reports that nothing non-uniform can
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

import warnings
from typing import Callable, List, Optional, Protocol, runtime_checkable

from repro.obs.profiler import NULL_PROFILER
from repro.obs.timeline import NULL_TIMELINE

from .watchdog import default_watchdog


#: Every component class participating in the per-component wake
#: protocol registers here (via :func:`register_wake_protocol`).  The
#: registry exists because ``ClockedModel.next_event_cycle`` defaults to
#: ``now`` — safe (never skips) but silent: one component forgetting to
#: override it disables skipping system-wide with no visible symptom
#: except lost speed.  The sanitizer (``REPRO_SIM_CHECK=1``) and a unit
#: test audit the registry so that failure mode is loud.
WAKE_PROTOCOL_REGISTRY: List[type] = []


def register_wake_protocol(cls):
    """Class decorator: enroll ``cls`` in the wake-protocol audit."""
    WAKE_PROTOCOL_REGISTRY.append(cls)
    return cls


def wake_protocol_offenders(cls=None) -> List[type]:
    """Registered classes that still use the never-skip default.

    A class offends when it neither defines its own ``next_event_cycle``
    nor inherits one from anywhere other than :class:`ClockedModel`'s
    default (which is tagged ``_default_wake``).  Pass ``cls`` to audit
    a single class instead of the whole registry.
    """
    targets = [cls] if cls is not None else WAKE_PROTOCOL_REGISTRY
    offenders = []
    for target in targets:
        fn = getattr(target, "next_event_cycle", None)
        if fn is None or getattr(fn, "_default_wake", False):
            offenders.append(target)
    return offenders


def _warn_default_wake(sim) -> None:
    """Sanitizer warning for a model running on the never-skip default."""
    cls = type(sim)
    if wake_protocol_offenders(cls):
        warnings.warn(
            f"{cls.__module__}.{cls.__qualname__} does not override "
            "ClockedModel.next_event_cycle; the skip engine will never "
            "skip while it is in the loop (lockstep-equivalent but slow)",
            RuntimeWarning,
            stacklevel=3,
        )


@runtime_checkable
class Clocked(Protocol):
    """A component advanced by an external clock.

    ``tick(cycle)`` advances one cycle; ``idle()`` reports whether the
    component has buffered work; ``next_event_cycle(now)`` reports the
    earliest cycle >= ``now`` at which ticking could change externally
    visible state (``None`` = no self-scheduled wake; the component only
    reacts to external events such as a response delivery).
    """

    def tick(self, cycle: int): ...

    def idle(self) -> bool: ...

    def next_event_cycle(self, now: int) -> Optional[int]: ...


class ClockedModel:
    """Base class for top-level simulations (MAC, Node, NUMASystem).

    Owns the cycle counter and the run loop; subclasses implement
    ``done()`` and ``tick()``, and — to benefit from :class:`SkipEngine` —
    override ``next_event_cycle``/``skip_to``.  The default
    ``next_event_cycle`` returns ``now`` (never skip), so a model that has
    not opted in behaves identically under either engine.
    """

    #: RuntimeError message raised when the max-cycles guard fires.
    _overrun_msg = "simulation exceeded max_cycles"

    _cycle: int = 0

    #: Cycle-windowed telemetry sampler, pumped by the engines at epoch
    #: boundaries (class-level NULL default; models that accept a
    #: ``timeline=`` kwarg rebind per instance).  Read-only observer:
    #: enabling it never changes simulation results.
    timeline = NULL_TIMELINE

    #: Wall-clock self-profiler (tick/skip counts, engine wall time);
    #: assigned per instance by ``repro run --profile`` style callers.
    profiler = NULL_PROFILER

    @property
    def cycle(self) -> int:
        return self._cycle

    def done(self) -> bool:
        raise NotImplementedError

    def tick(self):
        raise NotImplementedError

    # -- quiescence skipping (opt-in) ----------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which a non-uniform event can occur.

        Returning ``now`` disables skipping for this step; ``None`` means
        the model schedules no wake of its own (the engine then falls back
        to single-stepping, preserving lockstep behaviour — including the
        max-cycles guard — on models that would otherwise spin forever).

        This default is deliberately conservative — and therefore a
        silent performance trap: a registered component relying on it
        disables skipping system-wide.  The sanitizer warns (see
        :func:`wake_protocol_offenders`).
        """
        return now

    next_event_cycle._default_wake = True  # tagged for the registry audit

    def skip_to(self, target: int) -> None:
        """Fast-forward to ``target``, bulk-applying per-cycle accounting.

        Only called by :class:`SkipEngine`, and only with
        ``self.cycle < target <= next_event_cycle(self.cycle)``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} reported a wake event but does not "
            "implement skip_to"
        )

    # -- run loop ------------------------------------------------------------

    def _run_loop(
        self,
        max_cycles: int,
        engine=None,
        on_tick: Optional[Callable[[list], None]] = None,
        relative: bool = False,
    ) -> int:
        """Drive this model with ``engine`` until ``done()``.

        ``on_tick`` receives any non-empty value returned by ``tick()``
        (the MAC emits packets from its tick).  With ``relative`` the
        max-cycles budget counts from the current cycle instead of zero —
        the MAC's historical drain guard.
        """
        return get_engine(engine).run(
            self, max_cycles, on_tick=on_tick, relative=relative
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
        relative: bool = False,
    ) -> int:
        start = sim.cycle if relative else 0
        limit = start + max_cycles
        skipping = self.skipping
        wd = self.watchdog
        if wd.enabled:
            wd.reset()
            if skipping and getattr(wd, "sanitize", False):
                _warn_default_wake(sim)
        tl = getattr(sim, "timeline", NULL_TIMELINE)
        prof = getattr(sim, "profiler", NULL_PROFILER)
        observed = tl.enabled or prof.enabled
        if tl.enabled:
            tl.bind(sim)
        if prof.enabled:
            prof.run_started(self.name)
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
            if observed:
                if tl.enabled:
                    tl.pump(sim.cycle)
                prof.note_tick()
            if wd.enabled:
                wd.observe(sim)
            if sim.cycle - start > max_cycles:
                raise RuntimeError(sim._overrun_msg)
            if not skipping:
                continue
            wake = sim.next_event_cycle(sim.cycle)
            if wake is not None and wake > sim.cycle:
                # Never skip past the guard: ticking through the gap
                # raises with the counter at limit + 1, and so must we.
                before = sim.cycle
                sim.skip_to(min(wake, limit))
                if observed:
                    # A boundary landing exactly on the skip target is
                    # sampled here, before the next tick — the same
                    # pre-tick ordering ticking through the gap gives it.
                    if tl.enabled:
                        tl.pump(sim.cycle)
                    prof.note_skip(sim.cycle - before)
        if observed:
            if tl.enabled:
                tl.finish(sim.cycle)
            prof.run_finished(sim.cycle)
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
