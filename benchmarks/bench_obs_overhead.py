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

Variants are interleaved round-robin, so machine-load drift hits all
variants equally; the order rotates each round and garbage is collected
before each timed variant, so none always pays for its predecessor.  Each budget gates the median over rounds of the
per-round on/off ratio: one round whose plain run was slowed by host
noise can neither pass nor fail it alone.  The best-of times are
reported beside it.  The result
streams are also cross-checked for equality — the deep bit-identical
regressions live in ``tests/obs/test_noop_identical.py`` and
``tests/obs/test_attribution_noop.py``; here they guard the
measurement itself (an observer that changed the simulation would make
the timing comparison meaningless).

All wall times and ratios land in the benchmark JSON (``extra_info``
and the ``BENCH_obs_overhead.json`` artifact), so the cost of the
instrumentation is tracked across runs by ``scripts/bench_compare.py``.
"""

import gc
import statistics
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


def _median_ratio(rounds, on, off):
    """Median over rounds of ``rounds[i][on] / rounds[i][off]``."""
    return statistics.median(r[on] / r[off] for r in rounds if r[off] > 0)


def test_obs_overhead(benchmark):
    def measure():
        cached_trace(WORKLOAD, THREADS, OPS_PER_THREAD)  # warm: time engines only
        tracer = EventTracer(capacity=1 << 20)
        attrib = AttributionCollector()
        # Interleave the variants round-robin so machine-load drift hits
        # all of them equally.  Per variant pair the ratio is taken
        # per-round (off and on measured in the same round share machine
        # conditions) and the median round is gated — independent
        # best-of minima would compare an off-spike-free round against
        # an on-spiked one, and the smallest ratio would let one
        # slowed plain run hide any overhead.  The order rotates each
        # round and garbage is collected before every timed variant, so
        # no variant always pays for the garbage of the one before it
        # (the traced open loop leaves ~10^5 tracer events behind).
        rounds = []
        for k in range(ROUNDS):
            # Fresh Timeline per round: bind() is keyed on id(model) and
            # each round builds a new node, so a recycled object id must
            # never be mistaken for an already-bound model.
            timeline = Timeline()
            variants = (
                _open_loop,
                lambda: _open_loop(Observers(tracer=tracer)),
                _closed_loop,
                lambda: _closed_loop(Observers(attrib=attrib)),
                lambda: _closed_loop(Observers(timeline=timeline)),
            )
            times = [0.0] * len(variants)
            outs = [None] * len(variants)
            for j in range(len(variants)):
                i = (k + j) % len(variants)
                gc.collect()
                t0 = time.perf_counter()
                outs[i] = variants[i]()
                times[i] = time.perf_counter() - t0
            rounds.append(tuple(times))
        return (rounds, *outs, tracer, attrib, timeline)

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

    trace_ratio = _median_ratio(rounds, on=1, off=0)
    attr_ratio = _median_ratio(rounds, on=3, off=2)
    timeline_ratio = _median_ratio(rounds, on=4, off=2)
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
        f"{t_trace * 1e3:.1f} ms (median paired x{trace_ratio:.3f}); node off "
        f"{t_node_off * 1e3:.1f} ms, attribution {t_node_attr * 1e3:.1f} ms "
        f"(median paired x{attr_ratio:.3f}), timeline {t_node_tl * 1e3:.1f} ms "
        f"(median paired x{timeline_ratio:.3f}), {len(tracer)} events, "
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
