"""Memory tracing infrastructure — the Spike-tracer/analyzer stand-in.

Provides the trace record format, the packed trace the evaluation
layer caches, text/binary trace files, the closed-form window
predictor, and the execution statistics behind Equation 2 / Fig. 9.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    predictor=("EfficiencyPrediction", "predict_efficiency"),
    record=("OP_BY_NAME", "OP_NAMES", "PackedTrace", "TraceRecord", "to_requests"),
    stats=("ExecutionProfile", "TraceSummary", "summarize"),
    tracefile=("dump", "dump_binary", "dump_text", "load", "load_binary", "load_text"),
)

__all__ = [
    "ExecutionProfile",
    "OP_BY_NAME",
    "OP_NAMES",
    "PackedTrace",
    "TraceRecord",
    "TraceSummary",
    "EfficiencyPrediction",
    "dump",
    "dump_binary",
    "dump_text",
    "load",
    "predict_efficiency",
    "load_binary",
    "load_text",
    "summarize",
    "to_requests",
]
