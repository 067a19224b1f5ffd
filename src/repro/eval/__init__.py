"""Evaluation layer: metrics (Eqs. 1-3), area model, experiment drivers."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    area=("AreaReport", "arq_bytes", "builder_bytes", "mac_area"),
    parallel=("print_progress", "resolve_jobs", "run_tasks"),
    metrics=(
        "HMC_REQUEST_SIZES", "bandwidth_efficiency", "coalescing_efficiency",
        "control_overhead_fraction", "requests_per_cycle", "speedup",
    ),
    report=("format_table", "human_bytes", "pct"),
    sweeps=("SweepPoint", "sweep_grid"),
    runner=(
        "DispatchResult", "ReplayResult", "TraceCache", "cached_trace",
        "clear_trace_cache", "compare_policies", "dispatch", "replay_on_device",
        "trace_cache_info", "warm_trace_cache",
    ),
)

__all__ = [
    "AreaReport",
    "DispatchResult",
    "HMC_REQUEST_SIZES",
    "ReplayResult",
    "TraceCache",
    "clear_trace_cache",
    "parallel",
    "print_progress",
    "resolve_jobs",
    "run_tasks",
    "trace_cache_info",
    "warm_trace_cache",
    "arq_bytes",
    "bandwidth_efficiency",
    "builder_bytes",
    "cached_trace",
    "coalescing_efficiency",
    "compare_policies",
    "control_overhead_fraction",
    "dispatch",
    "energy",
    "serialize",
    "sweep_grid",
    "sweeps",
    "SweepPoint",
    "experiments",
    "format_table",
    "human_bytes",
    "mac_area",
    "metrics",
    "pct",
    "replay_on_device",
    "requests_per_cycle",
    "speedup",
]
