"""Memory tracing infrastructure — the Spike-tracer/analyzer stand-in.

Provides the trace record format, text/binary trace files, the stream
analyzer that recovers HMC row numbers and FLIT ids (section 5.1), and
the execution statistics behind Equation 2 / Fig. 9.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    analyzer=(
        "AnalyzedAccess", "RowLocalityStats", "annotate", "flit_footprints",
        "row_locality",
    ),
    predictor=("EfficiencyPrediction", "predict_efficiency"),
    record=("OP_BY_NAME", "OP_NAMES", "TraceRecord", "to_requests"),
    stats=("ExecutionProfile", "TraceSummary", "summarize"),
    tracefile=("dump", "dump_binary", "dump_text", "load", "load_binary", "load_text"),
    transform=(
        "downsample", "filter_ops", "merge_by_cycle", "remap_addresses",
        "split_by_core", "split_by_thread", "time_window",
    ),
)

__all__ = [
    "AnalyzedAccess",
    "ExecutionProfile",
    "OP_BY_NAME",
    "OP_NAMES",
    "RowLocalityStats",
    "TraceRecord",
    "TraceSummary",
    "annotate",
    "EfficiencyPrediction",
    "dump",
    "dump_binary",
    "dump_text",
    "flit_footprints",
    "load",
    "predict_efficiency",
    "load_binary",
    "load_text",
    "row_locality",
    "summarize",
    "downsample",
    "filter_ops",
    "merge_by_cycle",
    "remap_addresses",
    "split_by_core",
    "split_by_thread",
    "time_window",
    "to_requests",
]
