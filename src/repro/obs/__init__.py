"""Observability layer: metrics registry, stats protocol, event tracing.

``repro.obs`` gives the simulator the substrate its evaluation depends
on (DESIGN.md section 9):

* :class:`MetricsRegistry` + :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` — one flat, namespaced ``metrics()`` view over
  every stats source;
* :class:`StatsMixin` / :class:`StatsProtocol` — the shared
  snapshot/merge/reset contract every ``*Stats`` dataclass adopts,
  making parallel-eval workers mergeable by construction;
* :class:`EventTracer` / :data:`NULL_TRACER` — cycle-stamped structured
  event traces with Chrome-trace (Perfetto) and JSONL export, off by
  default with a bit-identical no-op path;
* :class:`AttributionCollector` / :data:`NULL_ATTRIBUTION` — per-request
  latency breakdown (stage stamps whose deltas sum exactly to
  end-to-end latency), the :class:`StallCause` taxonomy of
  ``stall_cycles{site,cause}`` counters, and strided queue-depth
  sampling; consumed by ``repro analyze`` bottleneck reports;
* :class:`Timeline` / :data:`NULL_TIMELINE` — cycle-windowed time
  series (per-epoch rates and levels) pumped by the engines, shard-
  aware under PDES, consumed by ``repro analyze --timeline``;
* :class:`SimProfiler` / :data:`NULL_PROFILER` — wall-clock
  self-profiling of the simulator (tick/skip ratios, PDES window
  utilization), the ``sim.*`` metrics namespace.
"""

from .attribution import (
    NULL_ATTRIBUTION,
    STAGES,
    AttributionCollector,
    DepthSampler,
    NullAttribution,
    StallCause,
    request_breakdown,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    flatten,
)
from .profiler import NULL_PROFILER, NullProfiler, SimProfiler
from .protocol import StatsMixin, StatsProtocol, merge_all
from .timeline import NULL_TIMELINE, NullTimeline, Timeline
from .tracer import (
    NULL_TRACER,
    EventTracer,
    NullTracer,
    canonical_key,
    merge_shard_traces,
)

__all__ = [
    "AttributionCollector",
    "DepthSampler",
    "NullAttribution",
    "NULL_ATTRIBUTION",
    "STAGES",
    "StallCause",
    "request_breakdown",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "flatten",
    "StatsMixin",
    "StatsProtocol",
    "merge_all",
    "EventTracer",
    "NullTracer",
    "NULL_TRACER",
    "canonical_key",
    "merge_shard_traces",
    "Timeline",
    "NullTimeline",
    "NULL_TIMELINE",
    "SimProfiler",
    "NullProfiler",
    "NULL_PROFILER",
]
