"""Grid parameter sweeps over MAC configurations.

A small design-space-exploration utility: declare axes (MACConfig field
-> list of values), run every combination of the grid over one or more
workload traces through the window engine, and get a tidy result table
back.  Used by the design-space example and handy for ad-hoc studies::

    results = sweep_grid(
        {"arq_entries": [8, 32, 128], "row_bytes": [256, 1024]},
        workloads=("MG", "IS"),
        jobs=4,            # process-pool execution, bit-identical to jobs=1
    )
    for point in results:
        print(point.params, point.workload, point.efficiency)

With ``jobs > 1`` the grid cells run on a process pool
(:mod:`repro.eval.parallel`); results are returned in grid order and are
element-for-element identical to the serial run — every cell is seeded
explicitly and generates its trace independently of scheduling.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MACConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.mac import coalesce_trace_fast
from repro.core.stats import MACStats
from repro.seeding import DEFAULT_SEED
from repro.trace.record import to_requests

from .parallel import ProgressFn, run_tasks
from .runner import cached_trace

_VALID_FIELDS = {f.name for f in dataclasses.fields(MACConfig)}


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One grid point's outcome for one workload."""

    params: Tuple[Tuple[str, Any], ...]
    workload: str
    efficiency: float
    packets: int
    bandwidth_efficiency: float
    avg_targets: float

    def param(self, name: str) -> Any:
        return dict(self.params)[name]


@dataclasses.dataclass(frozen=True)
class _SweepTask:
    """Picklable descriptor of one grid cell x workload evaluation."""

    params: Tuple[Tuple[str, Any], ...]
    config_kwargs: Tuple[Tuple[str, Any], ...]
    workload: str
    threads: int
    ops_per_thread: int
    seed: int
    policy: str


def _run_sweep_task(task: _SweepTask) -> SweepPoint:
    """Evaluate one grid cell (runs in-process or in a pool worker)."""
    cfg = MACConfig(**dict(task.config_kwargs))
    trace = cached_trace(task.workload, task.threads, task.ops_per_thread, task.seed)
    stats = MACStats()
    coalesce_trace_fast(
        list(to_requests(trace)), cfg, FlitTablePolicy(task.policy), stats
    )
    return SweepPoint(
        params=task.params,
        workload=task.workload,
        efficiency=stats.coalescing_efficiency,
        packets=stats.coalesced_packets,
        bandwidth_efficiency=stats.coalesced_bandwidth_efficiency,
        avg_targets=stats.avg_targets_per_packet,
    )


def sweep_grid(
    axes: Dict[str, Sequence[Any]],
    workloads: Sequence[str] = ("SG",),
    threads: int = 4,
    ops_per_thread: int = 1000,
    base: Optional[MACConfig] = None,
    policy: FlitTablePolicy = FlitTablePolicy.SPAN,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    progress: Optional[ProgressFn] = None,
    log_every: int = 1,
) -> List[SweepPoint]:
    """Run the full cartesian grid; returns one SweepPoint per cell.

    ``jobs`` > 1 distributes cells over a process pool; the returned list
    is bit-identical (same order, same values) to the serial run.
    ``progress(done, total)`` is invoked every ``log_every`` completed
    cells when given.
    """
    if not axes:
        raise ValueError("need at least one sweep axis")
    unknown = set(axes) - _VALID_FIELDS
    if unknown:
        raise ValueError(f"unknown MACConfig fields: {sorted(unknown)}")
    base_kwargs = (
        {f.name: getattr(base, f.name) for f in dataclasses.fields(MACConfig)}
        if base is not None
        else {}
    )
    names = list(axes)
    tasks: List[_SweepTask] = []
    for combo in itertools.product(*(axes[n] for n in names)):
        kwargs = dict(base_kwargs)
        kwargs.update(dict(zip(names, combo)))
        # Dependent-field coupling: when only the row size moves, shrink
        # max_request_bytes just enough to stay valid (requests may not
        # exceed one row).  An explicitly smaller base value — e.g.
        # ``base=MACConfig(max_request_bytes=64)`` under a 1024 B row —
        # is a deliberate design point and is preserved.
        if "row_bytes" in kwargs and "max_request_bytes" not in axes:
            current = kwargs.get("max_request_bytes", 256)
            if current > kwargs["row_bytes"]:
                kwargs["max_request_bytes"] = kwargs["row_bytes"]
        MACConfig(**kwargs)  # validate once, in the parent, fail fast
        for name in workloads:
            tasks.append(
                _SweepTask(
                    params=tuple(zip(names, combo)),
                    config_kwargs=tuple(sorted(kwargs.items())),
                    workload=name,
                    threads=threads,
                    ops_per_thread=ops_per_thread,
                    seed=seed,
                    policy=policy.value,
                )
            )
    warm = sorted({(t.workload, t.threads, t.ops_per_thread, t.seed) for t in tasks})
    return run_tasks(
        _run_sweep_task,
        tasks,
        jobs=jobs,
        progress=progress,
        log_every=log_every,
        warm=warm,
    )
