"""In-memory span recorder that times calls into the simulator's layers.

The recorder wraps public functions and methods *where they are looked
up* (a module attribute or a class attribute) and times every call from
outside the program.  Each span has a name and a layer; a span's self
time is its duration minus the time its child spans cover, so summing
self times by layer splits the traced wall time without double counting.

Spans are aggregated in memory by name and by ``(parent, name)`` edge
(the span tree).  Nothing is written while the job runs:
:meth:`SpanRecorder.snapshot` returns everything once, at the end.

Nothing in this module imports the simulator, so a job can time
``import repro.cli`` before any patch is installed.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer of time not covered by any other span (root self time).
RESIDUAL = "residual"


class SpanRecorder:
    """Aggregates span durations by name, layer and call edge."""

    def __init__(self, t0_ns: Optional[int] = None) -> None:
        self.t0_ns = perf_counter_ns() if t0_ns is None else t0_ns
        #: Open spans: [name, child_ns] per nesting level.
        self._stack: List[list] = [["job", 0]]
        #: name -> [calls, total_ns, self_ns]
        self.by_name: Dict[str, List[int]] = {}
        #: (parent, name) -> [calls, total_ns]
        self.edges: Dict[Tuple[str, str], List[int]] = {}
        self.layer_of: Dict[str, str] = {"job": RESIDUAL}
        self.counts: Dict[str, int] = {}
        self._end_ns: Optional[int] = None

    # -- recording -----------------------------------------------------------

    def _close(self, name: str, dt: int, child: int) -> None:
        parent = self._stack[-1]
        parent[1] += dt
        agg = self.by_name.get(name)
        if agg is None:
            agg = self.by_name[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - child
        edge = (parent[0], name)
        e = self.edges.get(edge)
        if e is None:
            e = self.edges[edge] = [0, 0]
        e[0] += 1
        e[1] += dt

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """A pass-through wrapper that times each call of ``fn`` as a span.

        ``on_result`` may transform the result inside the span; it is how
        a generator is consumed within the span that produced it.
        """
        self.layer_of[name] = layer
        stack = self._stack
        close = self._close

        def span(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    out = on_result(out)
                return out
            finally:
                end = perf_counter_ns()
                stack.pop()
                close(name, end - start, frame[1])

        return functools.update_wrapper(span, fn)

    def phase(self, name: str, layer: str = RESIDUAL) -> "_Phase":
        """Context manager recording one coarse span of the job itself."""
        self.layer_of[name] = layer
        return _Phase(self, name)

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def finish(self, end_ns: Optional[int] = None) -> None:
        """Close the root span; no span may still be open."""
        if len(self._stack) != 1:
            open_names = [f[0] for f in self._stack[1:]]
            raise RuntimeError(f"spans still open at finish: {open_names}")
        self._end_ns = perf_counter_ns() if end_ns is None else end_ns

    # -- results -------------------------------------------------------------

    @property
    def wall_s(self) -> float:
        end = self._end_ns if self._end_ns is not None else perf_counter_ns()
        return (end - self.t0_ns) / 1e9

    def residual_s(self) -> float:
        """Root self time: wall time no span below the root covers."""
        return self.wall_s - self._stack[0][1] / 1e9

    def calls(self, name: str) -> int:
        agg = self.by_name.get(name)
        return agg[0] if agg else 0

    def total_s(self, name: str) -> float:
        agg = self.by_name.get(name)
        return agg[1] / 1e9 if agg else 0.0

    def self_s(self, name: str) -> float:
        agg = self.by_name.get(name)
        return agg[2] / 1e9 if agg else 0.0

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer, residual included; sums to the wall time."""
        out: Dict[str, float] = {RESIDUAL: self.residual_s()}
        for name, (_calls, _total, self_ns) in self.by_name.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + self_ns / 1e9
        return out

    def snapshot(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "wall_s": self.wall_s,
            "layers": self.layer_self_s(),
            "spans": {
                name: {
                    "layer": self.layer_of[name],
                    "calls": calls,
                    "total_s": total / 1e9,
                    "self_s": self_ns / 1e9,
                }
                for name, (calls, total, self_ns) in sorted(self.by_name.items())
            },
            "edges": [
                {"parent": p, "name": n, "calls": c, "total_s": t / 1e9}
                for (p, n), (c, t) in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }


class _Phase:
    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.frame = [self.name, 0]
        self.rec._stack.append(self.frame)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        self.rec._stack.pop()
        self.rec._close(self.name, end - self.start, self.frame[1])


# ---------------------------------------------------------------------------
# Patch sites: one row per public call timed, named where it is looked up.
# ---------------------------------------------------------------------------


def _result_hooks(rec: SpanRecorder) -> Dict[str, Callable]:
    """Per-span result hooks: counts taken where the work happens."""

    def records(out):
        rec.count("workloads.records", len(out))
        return out

    def requests(out):
        # Consume the generator inside its span; callers iterate once.
        return list(out)

    return {"workloads.generate": records, "trace.to_requests": requests}


#: (module, class or None, attribute, span name, layer)
PATCH_SITES: Sequence[Tuple[str, Optional[str], str, str, str]] = (
    # workloads / trace
    ("repro.workloads.base", "Workload", "generate", "workloads.generate", "workloads"),
    ("repro.trace.record", None, "to_requests", "trace.to_requests", "trace"),
    ("repro.eval.runner", None, "to_requests", "trace.to_requests", "trace"),
    # core: the MAC front end
    ("repro.core.mac", "MAC", "process", "core.process", "core"),
    ("repro.core.mac", "MAC", "tick", "core.tick", "core"),
    ("repro.core.mac", "MAC", "submit", "core.submit", "core"),
    ("repro.core.mac", "MAC", "submit_remote", "core.submit_remote", "core"),
    ("repro.core.mac", "MAC", "deliver_responses", "core.deliver_responses", "core"),
    # hmc: the device
    ("repro.hmc.device", "HMCDevice", "submit", "hmc.submit", "hmc"),
    # node: cores, the node loop and the NUMA fabric
    ("repro.node.core", "InOrderCore", "tick", "node.core_tick", "node"),
    ("repro.node.node", "Node", "tick", "node.tick", "node"),
    ("repro.node.system", "NUMASystem", "tick", "node.system_tick", "node"),
    # sim: engine loops and the wake protocol
    ("repro.sim.kernel", "LockstepEngine", "run", "sim.loop", "sim"),
    ("repro.sim.kernel", "SkipEngine", "run", "sim.loop", "sim"),
    ("repro.core.mac", "MAC", "next_event_cycle", "sim.wake_probe", "sim"),
    ("repro.core.mac", "MAC", "skip_to", "sim.wake_probe", "sim"),
    ("repro.node.node", "Node", "next_event_cycle", "sim.wake_probe", "sim"),
    ("repro.node.node", "Node", "skip_to", "sim.wake_probe", "sim"),
    ("repro.node.system", "NUMASystem", "next_event_cycle", "sim.wake_probe", "sim"),
    ("repro.node.system", "NUMASystem", "skip_to", "sim.wake_probe", "sim"),
    # eval: figure drivers, window coalescer, device replay, trace cache
    ("repro.eval.experiments", None, "fig10_coalescing_efficiency", "eval.fig10", "eval"),
    ("repro.eval.experiments", None, "fig11_arq_sweep", "eval.fig11", "eval"),
    ("repro.eval.experiments", None, "fig17_speedup", "eval.fig17", "eval"),
    ("repro.eval.runner", None, "coalesce_trace_fast", "eval.window_coalesce", "eval"),
    ("repro.eval.runner", None, "replay_on_device", "eval.replay", "eval"),
    ("repro.eval.runner", None, "cached_trace", "eval.trace_cache", "eval"),
    ("repro.eval.experiments", None, "cached_trace", "eval.trace_cache", "eval"),
)


class Patches:
    """Installs wrappers on attributes and restores the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap_attr(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        # Class attributes are read from __dict__ so staticmethod-style
        # descriptors are never unwrapped by accident.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install_spans(rec: SpanRecorder, patches: Patches) -> None:
    """Wrap every :data:`PATCH_SITES` entry with a span of ``rec``."""
    hooks = _result_hooks(rec)
    for module, cls, attr, name, layer in PATCH_SITES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        on_result = hooks.get(name)
        patches.wrap_attr(
            owner,
            attr,
            lambda fn, n=name, l=layer, r=on_result: rec.wrap(fn, n, l, on_result=r),
        )
