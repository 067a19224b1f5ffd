"""Cycle-windowed time-series telemetry (DESIGN.md section 13).

Every other observability surface — ``metrics()``, stall attribution,
``repro analyze`` — is an end-of-run aggregate; this module answers the
question they cannot: *when inside the run* did bandwidth ramp, banks
conflict, queues back up.  The measured-HMC literature the reproduction
validates against (Hadidi et al.) is fundamentally time-resolved, so the
timeline is the artifact their plots come from.

A :class:`Timeline` samples named *probes* at fixed cycle-epoch
boundaries.  A probe is a zero-argument callable reading a live counter
or container; its *kind* decides what is recorded per epoch:

* ``"rate"``  — the per-epoch **delta** of a monotonic counter
  (requests issued, packets built, wire bytes, bank conflicts, credit
  stalls).  Zero deltas are never stored, so quiet stretches cost
  nothing — the series is O(events), not O(cycles).
* ``"level"`` — the **instantaneous** value at the epoch boundary
  (ARQ occupancy, LSQ depth, in-flight responses).  Zero levels are
  likewise elided.

Sampling is *pumped by the engines*, not by the models: after each tick
(and after each ``skip_to``) the engine calls ``pump(sim.cycle)``, which
samples every boundary newly crossed.  The skip-bit-identity argument is
the same one the aggregator's strided depth replay makes: a skip is
taken only over a proven-quiescent span, during which every probed
counter is constant, so the bulk post-skip ``pump`` records exactly the
samples the lockstep per-boundary pumps would have — including a
boundary landing *exactly on* the skip target, which both engines sample
once, after the jump and before the next tick (the half-open boundary
pin of DESIGN.md section 10).

Probes register via the model's ``timeline_probes()`` hook, composed
layer by layer (MAC -> Node -> NUMASystem), and are **bound lazily** at
the start of the driving loop (:meth:`bind`).

Like the tracer and the attribution collector, the timeline is off by
default: the default ``Observers`` bundle holds :data:`NULL_TIMELINE`,
every engine hook is gated on one ``enabled`` attribute, and the
timeline only ever *reads*
simulation state — a run with it enabled is bit-identical to one
without (pinned in ``tests/obs/test_timeline.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "NullTimeline",
    "Timeline",
    "NULL_TIMELINE",
    "DEFAULT_EPOCH",
    "DEFAULT_CAPACITY",
]

#: Default epoch width in cycles (one sample row per epoch).
DEFAULT_EPOCH = 1024

#: Default per-series epoch capacity (oldest epochs drop beyond it).
DEFAULT_CAPACITY = 4096

#: Probe kinds: per-epoch counter delta vs instantaneous boundary value.
KINDS = ("rate", "level")


class NullTimeline:
    """The no-op timeline every component and engine holds by default.

    ``enabled`` is ``False`` so the engine hooks skip all work; the
    methods exist (and do nothing) so cold paths may call them
    unconditionally.
    """

    __slots__ = ()
    enabled = False

    def bind(self, model: Any) -> None:
        """Ignore the model."""

    def pump(self, cycle: int) -> None:
        """Discard the boundary crossing."""

    def finish(self, cycle: int) -> None:
        """Discard the run end."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTimeline()"


#: Shared no-op instance; components default their ``timeline`` to this.
NULL_TIMELINE = NullTimeline()


class _Series:
    """One named series: sparse ``{epoch_index: value}`` with a cap."""

    __slots__ = ("kind", "epochs", "dropped")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        #: Insertion-ordered (epochs are sampled in increasing order),
        #: so the first key is always the oldest — O(1) eviction.
        self.epochs: Dict[int, float] = {}
        self.dropped = 0

    def record(self, epoch: int, value, capacity: int) -> None:
        if not value:
            return
        if len(self.epochs) >= capacity:
            oldest = next(iter(self.epochs))
            del self.epochs[oldest]
            self.dropped += 1
        self.epochs[epoch] = value

    def settle(self, epoch: int, value, capacity: int) -> None:
        """Store a level's end-of-run value for its final epoch.

        It replaces the boundary sample ``pump`` may already have taken
        in the same epoch; a zero value removes that sample.
        """
        if epoch not in self.epochs:
            self.record(epoch, value, capacity)
        elif value:
            self.epochs[epoch] = value
        else:
            del self.epochs[epoch]


class Timeline:
    """Fixed-epoch sampler over live probes, pumped by the engines."""

    __slots__ = (
        "enabled",
        "epoch",
        "capacity",
        "meta",
        "_series",
        "_probes",
        "_last",
        "_next_due",
        "_bound",
        "_cycles",
        "_finished",
    )

    def __init__(
        self, epoch: int = DEFAULT_EPOCH, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if epoch < 1:
            raise ValueError("timeline epoch must be positive")
        if capacity < 1:
            raise ValueError("timeline capacity must be positive")
        self.enabled = True
        self.epoch = epoch
        self.capacity = capacity
        #: Free-form annotations carried into :meth:`export`.
        self.meta: Dict[str, Any] = {}
        self._series: Dict[str, _Series] = {}
        #: (name, kind, fn) probe triples, installed by :meth:`bind`.
        self._probes: List[Tuple[str, str, Callable[[], float]]] = []
        #: Per-rate-probe counter value at the last sampled boundary.
        self._last: Dict[str, float] = {}
        self._next_due = epoch
        self._bound: Optional[int] = None
        self._cycles = 0
        self._finished = False

    # -- probe registration --------------------------------------------------

    def add_probe(self, name: str, kind: str, fn: Callable[[], float]) -> None:
        """Register one probe; rate probes baseline at the current value."""
        if kind not in KINDS:
            raise ValueError(f"unknown probe kind {kind!r} (use rate/level)")
        self._probes.append((name, kind, fn))
        if kind == "rate":
            self._last[name] = fn()

    def bind(self, model: Any) -> None:
        """Install ``model.timeline_probes()``; idempotent per model.

        Called by the engines at the start of each driving loop.
        Re-binding the same model (e.g. ``MAC.process``'s feed loop
        followed by its drain ``run``) is a no-op, preserving rate
        baselines mid-run.
        """
        key = id(model)
        if self._bound == key:
            return
        self._bound = key
        self._probes.clear()
        self._last.clear()
        hook = getattr(model, "timeline_probes", None)
        if hook is None:
            return
        for name, kind, fn in hook():
            self.add_probe(name, kind, fn)

    # -- sampling ------------------------------------------------------------

    def pump(self, cycle: int) -> None:
        """Sample every epoch boundary crossed up to ``cycle``.

        Engines call this after each tick and after each ``skip_to``;
        each boundary is sampled exactly once (the ``_next_due`` cursor
        advances monotonically), whether it was reached one tick at a
        time or jumped over in one skip.
        """
        while self._next_due <= cycle:
            self._sample(self._next_due)
            self._next_due += self.epoch

    def _sample(self, boundary: int) -> None:
        epoch_len = self.epoch
        cap = self.capacity
        series = self._series
        last = self._last
        for name, kind, fn in self._probes:
            value = fn()
            s = series.get(name)
            if s is None:
                s = series[name] = _Series(kind)
            if kind == "rate":
                delta = value - last[name]
                last[name] = value
                # The delta accrued over [boundary - epoch, boundary).
                s.record(boundary // epoch_len - 1, delta, cap)
            else:
                # The level *at* the boundary opens the next epoch.
                s.record(boundary // epoch_len, value, cap)

    def finish(self, cycle: int) -> None:
        """Settle the trailing partial epoch at the end of a run."""
        if self._finished:
            return
        self._finished = True
        self.pump(cycle)
        self._cycles = max(self._cycles, cycle)
        if cycle % self.epoch == 0:
            return
        # Rates accrued since the last boundary land in the final,
        # partial epoch; a level's end-of-run value replaces the one
        # sampled at that epoch's opening boundary.
        final_epoch = cycle // self.epoch
        cap = self.capacity
        for name, kind, fn in self._probes:
            value = fn()
            s = self._series.get(name)
            if s is None:
                s = self._series[name] = _Series(kind)
            if kind == "rate":
                s.record(final_epoch, value - self._last[name], cap)
                self._last[name] = value
            else:
                s.settle(final_epoch, value, cap)

    # -- introspection -------------------------------------------------------

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def series(self, name: str) -> Dict[int, float]:
        """Sparse ``{epoch_index: value}`` view of one series."""
        s = self._series.get(name)
        return dict(s.epochs) if s is not None else {}

    def dropped(self) -> int:
        """Total epochs evicted across every series."""
        return sum(s.dropped for s in self._series.values())

    def __len__(self) -> int:
        return len(self._series)

    # -- export --------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """JSON-serializable document of everything recorded.

        The same structure ``repro analyze --timeline`` reads (epoch
        keys are ints in memory; :meth:`write_json` stringifies them).
        """
        return {
            "version": 1,
            "epoch": self.epoch,
            "cycles": self._cycles,
            "meta": dict(self.meta),
            "series": {
                name: {
                    "kind": s.kind,
                    "dropped": s.dropped,
                    "epochs": dict(s.epochs),
                }
                for name, s in sorted(self._series.items())
            },
        }

    def write_json(
        self, path: Union[str, Path], meta: Optional[Dict[str, Any]] = None
    ) -> int:
        """Atomically write the export document; returns the series count.

        Epoch keys become strings (JSON objects require it); readers use
        ``int(key)`` — see ``repro.obs.analyze.load_timeline``.
        """
        from repro.ioutil import atomic_write_text

        doc = self.export()
        if meta:
            doc["meta"].update(meta)
        doc["series"] = {
            name: {**payload, "epochs": {
                str(k): v for k, v in payload["epochs"].items()
            }}
            for name, payload in doc["series"].items()
        }
        atomic_write_text(path, json.dumps(doc, sort_keys=True))
        return len(doc["series"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Timeline(epoch={self.epoch}, series={len(self._series)}, "
            f"cycles={self._cycles})"
        )
