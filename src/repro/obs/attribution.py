"""Per-request latency attribution and stall-cause accounting (DESIGN.md §9).

The metrics layer says *what* happened and the tracer says *when*; this
module says *where the cycles went*.  Two complementary views:

* **Latency breakdown** — every raw request carries a compact record of
  absolute cycle stamps at the pipeline boundaries it crosses (router
  submit, ARQ admit, ARQ pop, packet dispatch, NoC ingress, vault
  arrival, bank dispatch, data ready, completion, delivery).  The deltas between
  consecutive stamps are the per-stage latencies; because they telescope,
  the stage sums equal the end-to-end latency *exactly*, cycle for cycle
  — pinned by ``tests/integration/test_latency_breakdown.py``.  Stages
  aggregate into bounded :class:`~repro.obs.metrics.Histogram` sketches
  with p50/p95/p99.

* **Stall taxonomy** — whenever a component fails to make progress it
  charges one cause from the closed :class:`StallCause` enum against its
  site, Top-down style (Yasin, ISPASS '14).  Cycle-ticked components
  (MAC front-end, builder) charge one cycle per tick and the whole span
  of a skip that covers the wait; event-timed
  components (links, vaults) charge wall-clock *spans* that are clipped
  against a per-``(site, cause)`` watermark, so overlapping per-request
  waits collapse into their union and no counter can exceed the elapsed
  cycles of the run — pinned by a hypothesis property.

A strided :class:`DepthSampler` additionally records bounded queue-depth
/ occupancy time series (ARQ entries, link tokens, vault backlog): when
its per-site buffer fills it halves the series and doubles the stride,
so memory stays O(capacity) over arbitrarily long runs.

Everything is **off by default**: the default ``Observers`` bundle holds
the :data:`NULL_ATTRIBUTION` singleton whose ``enabled`` flag gates every
hook, mirroring :data:`repro.obs.tracer.NULL_TRACER`.  A run with
attribution disabled is bit-identical to one without the hooks compiled
in at all, because the collector only ever *reads* simulation state.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from .metrics import Histogram

__all__ = [
    "STAGES",
    "MARKS",
    "STAGE_OF_MARK",
    "StallCause",
    "DepthSampler",
    "NullAttribution",
    "AttributionCollector",
    "NodeAttribution",
    "NULL_ATTRIBUTION",
]

#: Pipeline boundary marks, in path order.  Each raw request stores the
#: absolute cycle at which it crossed each boundary it reached.
MARKS: Tuple[str, ...] = (
    "submit",         # accepted by the request router
    "arq_admit",      # accepted into the ARQ
    "arq_pop",        # entry (with every merged request) left the ARQ
    "dispatch",       # coalesced packet left the MAC towards the device
    "xbar_arrive",    # request link serialization done, at the NoC ingress
    "vault_arrive",   # NoC (crossbar/ring/mesh) traversal done
    "bank_dispatch",  # vault front-end queue cleared, bank engaged
    "data_ready",     # DRAM burst data available at the vault
    "complete",       # response crossbar + link serialization done
    "deliver",        # response routed back to the issuing core
)

#: Stage names: the delta *ending* at each mark (skipping the first).
STAGE_OF_MARK: Dict[str, str] = {
    "arq_admit": "router_queue",
    "arq_pop": "coalesce_wait",
    "dispatch": "builder",
    "xbar_arrive": "link_request",
    "vault_arrive": "noc_traverse",
    "bank_dispatch": "vault_queue",
    "data_ready": "dram_service",
    "complete": "link_response",
    "deliver": "response_route",
}

#: Per-stage latency components, in path order; sums to end-to-end.
STAGES: Tuple[str, ...] = tuple(STAGE_OF_MARK[m] for m in MARKS[1:])


class StallCause(str, enum.Enum):
    """Closed taxonomy of reasons a component fails to make progress.

    The string values are the keys used in snapshots, metrics and the
    ``repro analyze`` report; new causes extend the enum, never ad-hoc
    strings.
    """

    #: MAC front-end cannot accept: every ARQ entry is occupied.
    ARQ_FULL = "arq_full"
    #: ARQ occupied/waiting because a pending fence must drain first.
    FENCE_DRAIN = "fence_drain"
    #: ARQ pop due but the builder's stage 1 latch is still busy.
    BUILDER_BUSY = "builder_busy"
    #: A core's request bounced off a full router input FIFO.
    INPUT_QUEUE_FULL = "input_queue_full"
    #: Link channel busy serializing earlier packets (fault-free wait).
    LINK_BUSY = "link_busy"
    #: Flow-control tokens / retry-buffer credits exhausted.
    LINK_TOKENS_EXHAUSTED = "link_tokens_exhausted"
    #: Extra wire time spent replaying NAKed packets (CRC/ACK loss).
    RETRY_REPLAY = "retry_replay"
    #: Vault front-end queue full: request waited for admission.
    VAULT_QUEUE_FULL = "vault_queue_full"
    #: Addressed bank still busy with an earlier closed-page access.
    BANK_CONFLICT = "bank_conflict"
    #: NoC output port busy (arbitration loss) or its input buffer full
    #: (backpressure into the link) — charged at the arbiter.
    NOC_CONTENTION = "noc_contention"
    #: Open-page row miss: the previously open row's precharge sits on
    #: the requester's critical path — charged at the bank.
    ROW_MISS = "row_miss"
    #: Remote completion path pushed back: the NUMA fabric had to bounce
    #: a payload because the destination queue was full (NACK retry).
    RESPONSE_BACKPRESSURE = "response_backpressure"


class DepthSampler:
    """Strided, bounded queue-depth/occupancy time series per site.

    Every ``stride``-th offered sample is kept as ``(cycle, value)``.
    When a site's series reaches ``capacity`` it is decimated (every
    other point dropped) and the stride doubles, so memory is bounded
    while the series keeps covering the whole run.
    """

    __slots__ = ("base_stride", "capacity", "_series", "_stride", "_seen")

    def __init__(self, stride: int = 64, capacity: int = 2048) -> None:
        if stride < 1:
            raise ValueError("stride must be positive")
        if capacity < 8:
            raise ValueError("capacity must be at least 8")
        self.base_stride = stride
        self.capacity = capacity
        self._series: Dict[str, List[Tuple[int, float]]] = {}
        self._stride: Dict[str, int] = {}
        self._seen: Dict[str, int] = {}

    def sample(self, site: str, cycle: int, value: float) -> None:
        """Offer one observation; kept only on the site's stride."""
        seen = self._seen.get(site, 0)
        self._seen[site] = seen + 1
        stride = self._stride.get(site, self.base_stride)
        if seen % stride:
            return
        series = self._series.setdefault(site, [])
        series.append((cycle, value))
        if len(series) >= self.capacity:
            del series[1::2]
            self._stride[site] = stride * 2

    def sites(self) -> List[str]:
        return sorted(self._series)

    def series(self, site: str) -> List[Tuple[int, float]]:
        """The retained ``(cycle, value)`` points of one site, in order."""
        return list(self._series.get(site, ()))

    def snapshot(self) -> Dict[str, Any]:
        """Per-site summary (the full series stays query-only)."""
        out: Dict[str, Any] = {}
        for site, series in sorted(self._series.items()):
            values = [v for _, v in series]
            out[site] = {
                "points": len(series),
                "stride": self._stride.get(site, self.base_stride),
                "offered": self._seen.get(site, 0),
                "min": min(values),
                "max": max(values),
                "mean": sum(values) / len(values),
                "last": values[-1],
            }
        return out


class NullAttribution:
    """No-op collector every instrumented component holds by default.

    ``enabled`` is ``False`` so hot paths skip all bookkeeping behind a
    single attribute check; the methods exist so cold paths may call
    them unconditionally.
    """

    __slots__ = ()
    enabled = False

    def mark(self, request, mark: str, cycle: int) -> None:
        """Discard the boundary stamp."""

    def finalize(self, request) -> None:
        """Discard the completed request."""

    def stall_span(self, site: str, cause: "StallCause", begin: int, end: int) -> None:
        """Discard the stall span."""

    def sample_depth(self, site: str, cycle: int, value: float) -> None:
        """Discard the occupancy sample."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullAttribution()"


#: Shared no-op instance; components default their ``attrib`` to this.
NULL_ATTRIBUTION = NullAttribution()


class AttributionCollector:
    """Aggregates stamps, stall charges and occupancy samples of one run.

    One collector is wired through a MAC + device (or node/system) the
    same way an :class:`~repro.obs.tracer.EventTracer` is; it is purely
    an observer.  ``snapshot()`` is registry-compatible, so the
    collector can be dropped into a :class:`MetricsRegistry`.
    """

    __slots__ = (
        "enabled",
        "_stage_cycles",
        "stalls",
        "depth",
        "_finalized",
        "incomplete",
        "_stage_hists",
        "_end_hist",
        "_pending",
        "_pending_end",
        "_finalize_buf",
        "_watermarks",
    )

    #: Distinct delta values buffered per stage before folding into the
    #: histogram; bounds the pending-buffer memory.
    _PENDING_LIMIT = 4096

    #: Completed stamp records buffered before batch aggregation; bounds
    #: the finalize-buffer memory.
    _FINALIZE_BATCH = 8192

    def __init__(
        self,
        sample_limit: int = 8192,
        depth_stride: int = 1,
        depth_capacity: int = 2048,
    ) -> None:
        self.enabled = True
        self._stage_hists: Dict[str, Histogram] = {
            stage: Histogram(sample_limit=sample_limit) for stage in STAGES
        }
        #: Exact integer per-stage totals (the histograms' float totals
        #: mirror them; these are what the exactness contract pins).
        self._stage_cycles: Dict[str, int] = {stage: 0 for stage in STAGES}
        self._end_hist = Histogram(sample_limit=sample_limit)
        #: Stage deltas buffered as ``{delta: occurrences}`` and folded
        #: into the histograms lazily: stage latencies repeat heavily,
        #: so this turns ~9 Histogram.add calls per request into dict
        #: increments, keeping the attribution overhead inside budget
        #: (``benchmarks/bench_obs_overhead.py``).  Quantiles are
        #: unaffected — they depend on the value multiset, not arrival
        #: order.
        self._pending: Dict[str, Dict[int, int]] = {s: {} for s in STAGES}
        self._pending_end: Dict[int, int] = {}
        #: Stamp records awaiting batch aggregation (see finalize()).
        self._finalize_buf: List[Dict[str, int]] = []
        #: ``site -> cause-value -> stall cycles``.
        self.stalls: Dict[str, Dict[str, int]] = {}
        self.depth = DepthSampler(depth_stride, depth_capacity)
        self._finalized = 0
        self.incomplete = 0
        #: Per-(site, cause) charged-until cycle for span clipping.
        self._watermarks: Dict[Tuple[str, str], int] = {}

    # -- lazy histogram folding --------------------------------------------

    @staticmethod
    def _fold(hist: Histogram, bucket: Dict[int, int]) -> None:
        for value in sorted(bucket):
            hist.add(value, bucket[value])
        bucket.clear()

    def _flush(self) -> None:
        """Drain the finalize buffer, fold every pending delta bucket."""
        self._drain()
        for stage, bucket in self._pending.items():
            if bucket:
                self._fold(self._stage_hists[stage], bucket)
        if self._pending_end:
            self._fold(self._end_hist, self._pending_end)

    @property
    def stages(self) -> Dict[str, Histogram]:
        """Per-stage latency histograms (pending deltas folded in)."""
        self._flush()
        return self._stage_hists

    @property
    def end_to_end(self) -> Histogram:
        """End-to-end latency histogram (pending deltas folded in)."""
        self._flush()
        return self._end_hist

    @property
    def finalized(self) -> int:
        """Completed requests, including those awaiting batch drain."""
        return self._finalized + len(self._finalize_buf)

    @property
    def stage_cycles(self) -> Dict[str, int]:
        """Exact integer per-stage cycle totals (drained first)."""
        self._drain()
        return self._stage_cycles

    # -- latency breakdown -------------------------------------------------

    def mark(self, request, mark: str, cycle: int) -> None:
        """Stamp one boundary crossing on a raw request.

        Re-stamping a mark overwrites it, so a fault-injected re-issue
        replaces the doomed attempt's timeline with the successful one
        and the stamps stay monotone.
        """
        marks = request.marks
        if marks is None:
            marks = request.marks = {}
        marks[mark] = cycle

    def finalize(self, request) -> None:
        """Queue a completed request's stamps for aggregation.

        Hot path: one list append.  The stamp records aggregate in
        batches of :data:`_FINALIZE_BATCH` (bounded memory) via
        :meth:`_drain`, which runs off the simulation's critical path —
        on buffer overflow or on the next ``stages`` / ``end_to_end`` /
        ``snapshot`` access.
        """
        marks = request.marks
        if not marks or len(marks) < 2:
            self.incomplete += 1
            return
        buf = self._finalize_buf
        buf.append(marks)
        if len(buf) >= self._FINALIZE_BATCH:
            self._drain()

    def _drain(self) -> None:
        """Aggregate the buffered stamp records (batch finalize)."""
        buf = self._finalize_buf
        if not buf:
            return
        pending = self._pending
        stage_cycles = self._stage_cycles
        pend_end = self._pending_end
        for marks in buf:
            get = marks.get
            first: Optional[int] = None
            prev: Optional[int] = None
            for name in MARKS:
                cycle = get(name)
                if cycle is None:
                    continue
                if prev is None:
                    first = cycle
                else:
                    stage = STAGE_OF_MARK[name]
                    delta = cycle - prev
                    bucket = pending[stage]
                    bucket[delta] = bucket.get(delta, 0) + 1
                    stage_cycles[stage] += delta
                prev = cycle
            end = prev - first
            pend_end[end] = pend_end.get(end, 0) + 1
        self._finalized += len(buf)
        buf.clear()
        for stage, bucket in pending.items():
            if len(bucket) > self._PENDING_LIMIT:
                self._fold(self._stage_hists[stage], bucket)
        if len(pend_end) > self._PENDING_LIMIT:
            self._fold(self._end_hist, pend_end)

    # -- stall taxonomy ----------------------------------------------------

    def stall_span(self, site: str, cause: StallCause, begin: int, end: int) -> None:
        """Charge the wall-clock span ``[begin, end)`` of a blocked wait.

        Spans are clipped against a per-``(site, cause)`` watermark so
        overlapping per-request waits collapse into their union: the
        counter measures *wall* cycles the resource was a bottleneck,
        and can never exceed the elapsed cycles of the run.
        """
        if end <= begin:
            return
        key = (site, cause.value)
        watermark = self._watermarks.get(key, 0)
        charged_from = max(begin, watermark)
        if end > charged_from:
            per_site = self.stalls.setdefault(site, {})
            per_site[cause.value] = per_site.get(cause.value, 0) + end - charged_from
        if end > watermark:
            self._watermarks[key] = end

    # -- occupancy ---------------------------------------------------------

    def sample_depth(self, site: str, cycle: int, value: float) -> None:
        self.depth.sample(site, cycle, value)

    # -- views -------------------------------------------------------------

    @staticmethod
    def _hist_summary(hist: Histogram) -> Dict[str, Any]:
        return {
            "count": hist.count,
            "total": hist.total,
            "mean": hist.mean,
            "p50": hist.quantile(0.5),
            "p95": hist.quantile(0.95),
            "p99": hist.quantile(0.99),
            "max": hist.max if hist.max is not None else 0,
        }

    def stage_table(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage summary keyed by stage name, path order."""
        stages = self.stages  # flushes pending deltas
        return {stage: self._hist_summary(stages[stage]) for stage in STAGES}

    def snapshot(self) -> Dict[str, Any]:
        self._flush()
        return {
            "requests_finalized": self.finalized,
            "requests_incomplete": self.incomplete,
            "end_to_end": self._hist_summary(self._end_hist),
            "stages": self.stage_table(),
            "stage_cycles": dict(self._stage_cycles),
            "stalls": {site: dict(causes) for site, causes in self.stalls.items()},
            "depth": self.depth.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AttributionCollector(finalized={self.finalized}, "
            f"sites={len(self.stalls)})"
        )


class NodeAttribution:
    """One mesh node's handle on the mesh's collector.

    Every stall and depth site the node's components charge gains the
    node's ``node<k>.`` prefix, so each node's cube, MAC and router own
    their sites and watermarks; marks, ``finalize`` and the stage
    histograms are the collector's own.  The components stay
    mesh-agnostic: they charge ``arq`` or ``link0_req`` either way.
    """

    __slots__ = ("collector", "prefix", "mark", "finalize")
    enabled = True

    def __init__(self, collector: AttributionCollector, node_id: int) -> None:
        self.collector = collector
        self.prefix = f"node{node_id}."
        self.mark = collector.mark
        self.finalize = collector.finalize

    def stall_span(self, site: str, cause: StallCause, begin: int, end: int) -> None:
        self.collector.stall_span(self.prefix + site, cause, begin, end)

    def sample_depth(self, site: str, cycle: int, value: float) -> None:
        self.collector.sample_depth(self.prefix + site, cycle, value)
