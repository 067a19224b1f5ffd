"""Observability overhead — tracer/attribution off vs on wall time.

Two measurements, both off-by-default observers against the shipping
no-op configuration (every hook gated behind one ``enabled`` attribute
check):

* **Open loop** (dispatch + device replay) with a live
  :class:`EventTracer` — the tracer's natural habitat, reported as
  ``overhead_ratio``.
* **Closed loop** (full Fig. 4 node via ``attributed_node_run``) with a
  live :class:`AttributionCollector` — the path ``repro analyze``
  actually runs, reported as ``attribution_overhead_ratio`` and
  budgeted at <= 15% over the disabled run (ISSUE 4 acceptance
  criterion, asserted here).  The closed loop is the honest
  denominator: cores, router, MAC and device all burn cycles, so the
  ratio reflects the instrument's share of a real analysis run rather
  than of a stripped-down replay inner loop.
* **Closed loop** again with a live :class:`Timeline` — the
  ``repro run --timeline-out`` path, reported as
  ``timeline_overhead_ratio`` and budgeted at <= 10% over the disabled
  run (ISSUE 9 acceptance criterion, asserted here).  The timeline is
  engine-pumped counter-delta sampling, so its cost is one boundary
  check per tick plus one probe sweep per epoch.

Variants are interleaved round-robin and the best round of each is
kept, so machine-load drift hits all variants equally.  The result
streams are also cross-checked for equality — the deep bit-identical
regressions live in ``tests/obs/test_noop_identical.py`` and
``tests/obs/test_attribution_noop.py``; here they guard the
measurement itself (an observer that changed the simulation would make
the timing comparison meaningless).

All wall times and ratios land in the benchmark JSON (``extra_info``
and the ``BENCH_obs_overhead.json`` artifact), so the cost of the
instrumentation is tracked across runs by ``scripts/bench_compare.py``.
"""

import time

import pytest

from repro.eval.runner import (
    attributed_node_run,
    cached_trace,
    dispatch,
    replay_on_device,
)
from repro.obs import (
    NO_OBSERVERS,
    AttributionCollector,
    EventTracer,
    Observers,
    Timeline,
)

from conftest import attach, run_figure

pytestmark = pytest.mark.obs

WORKLOAD = "SG"
THREADS = 4
OPS_PER_THREAD = 2000
ROUNDS = 5
#: Acceptance budget: attribution-on node wall time vs the disabled run.
ATTRIBUTION_BUDGET = 1.15
#: Acceptance budget: timeline-on node wall time vs the disabled run.
TIMELINE_BUDGET = 1.10


def _open_loop(obs=NO_OBSERVERS):
    disp = dispatch(
        WORKLOAD, "mac-cycle", threads=THREADS, ops_per_thread=OPS_PER_THREAD,
        obs=obs,
    )
    replay = replay_on_device(disp.packets, obs=obs)
    return disp, replay


def _closed_loop(obs=NO_OBSERVERS):
    return attributed_node_run(
        WORKLOAD, threads=THREADS, ops_per_thread=OPS_PER_THREAD, obs=obs
    )


def test_obs_overhead(benchmark):
    def measure():
        cached_trace(WORKLOAD, THREADS, OPS_PER_THREAD)  # warm: time engines only
        tracer = EventTracer(capacity=1 << 20)
        attrib = AttributionCollector()
        # Interleave the variants round-robin so machine-load drift hits
        # all of them equally.  Per variant pair the ratio is taken
        # per-round (off and on measured back-to-back share machine
        # conditions) and the best round wins — independent best-of
        # minima would compare an off-spike-free round against an
        # on-spiked one and report phantom overhead.
        rounds = []
        off = traced = node_off = node_attr = node_tl = timeline = None
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            off = _open_loop()
            t_off = time.perf_counter() - t0
            t0 = time.perf_counter()
            traced = _open_loop(Observers(tracer=tracer))
            t_trace = time.perf_counter() - t0
            t0 = time.perf_counter()
            node_off = _closed_loop()
            t_node_off = time.perf_counter() - t0
            t0 = time.perf_counter()
            node_attr = _closed_loop(Observers(attrib=attrib))
            t_node_attr = time.perf_counter() - t0
            # Fresh Timeline per round: bind() is keyed on id(model) and
            # each round builds a new node, so a recycled object id must
            # never be mistaken for an already-bound model.
            timeline = Timeline()
            t0 = time.perf_counter()
            node_tl = _closed_loop(Observers(timeline=timeline))
            t_node_tl = time.perf_counter() - t0
            rounds.append((t_off, t_trace, t_node_off, t_node_attr, t_node_tl))
        return rounds, off, traced, node_off, node_attr, node_tl, tracer, attrib, timeline

    rounds, off, traced, node_off, node_attr, node_tl, tracer, attrib, timeline = run_figure(
        benchmark, measure, "observability overhead (tracer/attribution off vs on)"
    )
    t_off = min(r[0] for r in rounds)
    t_trace = min(r[1] for r in rounds)
    t_node_off = min(r[2] for r in rounds)
    t_node_attr = min(r[3] for r in rounds)
    (off_disp, _) = off
    (trace_disp, _) = traced
    assert trace_disp.packets == off_disp.packets
    assert trace_disp.stats.snapshot() == off_disp.stats.snapshot()
    assert len(tracer) > 0

    t_node_tl = min(r[4] for r in rounds)

    (_, plain_node) = node_off
    (_, attr_node) = node_attr
    (_, tl_node) = node_tl
    assert attr_node.cycle == plain_node.cycle
    assert attr_node.mac.stats.snapshot() == plain_node.mac.stats.snapshot()
    assert attr_node.device.stats.snapshot() == plain_node.device.stats.snapshot()
    assert attrib.finalized > 0
    assert tl_node.cycle == plain_node.cycle
    assert tl_node.mac.stats.snapshot() == plain_node.mac.stats.snapshot()
    assert sum(len(s["epochs"]) for s in timeline.export()["series"].values()) > 0

    trace_ratio = min(r[1] / r[0] for r in rounds if r[0] > 0)
    attr_ratio = min(r[3] / r[2] for r in rounds if r[2] > 0)
    timeline_ratio = min(r[4] / r[2] for r in rounds if r[2] > 0)
    attach(
        benchmark,
        tracer_off_s=t_off,
        tracer_on_s=t_trace,
        node_off_s=t_node_off,
        node_attribution_s=t_node_attr,
        node_timeline_s=t_node_tl,
        overhead_ratio=trace_ratio,
        attribution_overhead_ratio=attr_ratio,
        timeline_overhead_ratio=timeline_ratio,
        events_recorded=len(tracer),
        events_dropped=tracer.dropped,
        requests_attributed=attrib.finalized,
        timeline_series=len(timeline.export()["series"]),
    )
    print(
        f"\nobs overhead: open-loop off {t_off * 1e3:.1f} ms, tracer "
        f"{t_trace * 1e3:.1f} ms (best paired x{trace_ratio:.3f}); node off "
        f"{t_node_off * 1e3:.1f} ms, attribution {t_node_attr * 1e3:.1f} ms "
        f"(best paired x{attr_ratio:.3f}), timeline {t_node_tl * 1e3:.1f} ms "
        f"(best paired x{timeline_ratio:.3f}), {len(tracer)} events, "
        f"{attrib.finalized} requests attributed"
    )
    assert attr_ratio <= ATTRIBUTION_BUDGET, (
        f"attribution overhead x{attr_ratio:.3f} blew the "
        f"x{ATTRIBUTION_BUDGET} budget"
    )
    assert timeline_ratio <= TIMELINE_BUDGET, (
        f"timeline overhead x{timeline_ratio:.3f} blew the "
        f"x{TIMELINE_BUDGET} budget"
    )
