"""Observability layer: metrics registry, stats protocol, event tracing.

``repro.obs`` gives the simulator the substrate its evaluation depends
on (DESIGN.md section 9):

* :class:`MetricsRegistry` + :class:`Histogram` — one flat, namespaced
  ``metrics()`` view over every stats source;
* :class:`StatsMixin` — the shared ``snapshot()`` every ``*Stats``
  dataclass adopts;
* :class:`EventTracer` / :data:`NULL_TRACER` — cycle-stamped structured
  event traces with Chrome-trace (Perfetto) and JSONL export, off by
  default with a bit-identical no-op path;
* :class:`AttributionCollector` / :data:`NULL_ATTRIBUTION` — per-request
  latency breakdown (stage stamps whose deltas sum exactly to
  end-to-end latency), the :class:`StallCause` taxonomy of
  ``stall_cycles{site,cause}`` counters, and strided queue-depth
  sampling; consumed by ``repro analyze`` bottleneck reports;
* :class:`Timeline` / :data:`NULL_TIMELINE` — cycle-windowed time
  series (per-epoch rates and levels) pumped by the engines, consumed
  by ``repro analyze --timeline``;
* :class:`SimProfiler` / :data:`NULL_PROFILER` — wall-clock
  self-profiling of the simulator (tick/skip ratios, run wall time),
  the ``sim.*`` metrics namespace;
* :class:`Observers` / :data:`NO_OBSERVERS` — those four in one bundle,
  every component's single ``obs=`` argument.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    attribution=(
        "NULL_ATTRIBUTION", "STAGES", "AttributionCollector", "DepthSampler",
        "NullAttribution", "StallCause",
    ),
    metrics=("Histogram", "MetricsRegistry", "flatten"),
    observers=("NO_OBSERVERS", "Observers"),
    profiler=("NULL_PROFILER", "NullProfiler", "SimProfiler"),
    protocol=("StatsMixin",),
    timeline=("NULL_TIMELINE", "NullTimeline", "Timeline"),
    tracer=("NULL_TRACER", "EventTracer", "NullTracer"),
)

__all__ = [
    "AttributionCollector",
    "DepthSampler",
    "NullAttribution",
    "NULL_ATTRIBUTION",
    "STAGES",
    "StallCause",
    "Histogram",
    "MetricsRegistry",
    "flatten",
    "StatsMixin",
    "EventTracer",
    "NullTracer",
    "NULL_TRACER",
    "Timeline",
    "NullTimeline",
    "NULL_TIMELINE",
    "SimProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "Observers",
    "NO_OBSERVERS",
]
