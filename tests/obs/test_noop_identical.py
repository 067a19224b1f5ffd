"""Tracing must be observation-only: a traced run is bit-identical.

The tentpole regression of the observability PR: running the cycle
engine (and the device replay) with tracing disabled produces *exactly*
the packets and stats of a run where an :class:`EventTracer` was wired
in and its buffer discarded.  The tracer only ever reads simulation
state, so enabling it cannot perturb results.
"""

import pytest

from repro.eval.runner import dispatch, replay_on_device
from repro.obs import NULL_TRACER, EventTracer, Observers

pytestmark = pytest.mark.obs

WORKLOAD = "IS"
SIZING = dict(threads=4, ops_per_thread=400)


def _run(tracer):
    obs = Observers(tracer=tracer)
    disp = dispatch(WORKLOAD, "mac-cycle", obs=obs, **SIZING)
    replay = replay_on_device(disp.packets, obs=obs)
    return disp, replay


def test_disabled_run_bit_identical_to_traced_run():
    base_disp, base_replay = _run(NULL_TRACER)
    tracer = EventTracer()
    traced_disp, traced_replay = _run(tracer)

    # The traced run actually observed something...
    assert len(tracer) > 0
    assert "arq" in tracer.channels()
    assert "vault" in tracer.channels()

    # ...and perturbed nothing: identical packet streams (CoalescedRequest
    # is an eq-dataclass, so this compares every field of every packet)
    # and identical stats snapshots, MAC side and device side.
    assert traced_disp.packets == base_disp.packets
    assert traced_disp.stats.snapshot() == base_disp.stats.snapshot()
    assert traced_replay.device.stats.snapshot() == base_replay.device.stats.snapshot()
    assert traced_replay.makespan == base_replay.makespan
    assert traced_replay.mean_latency == base_replay.mean_latency


def test_paused_tracer_matches_null_tracer():
    """``pause()`` turns a live tracer back into the zero-overhead path."""
    base_disp, _ = _run(NULL_TRACER)
    tracer = EventTracer()
    tracer.pause()
    disp, _ = _run(tracer)
    assert len(tracer) == 0
    assert disp.packets == base_disp.packets
    assert disp.stats.snapshot() == base_disp.stats.snapshot()


def test_metrics_view_is_flat_and_namespaced():
    """The dispatch/replay metrics views stay flat dot-namespaced dicts."""
    disp, replay = _run(NULL_TRACER)
    for view, prefixes in (
        (disp.metrics(), {"mac"}),
        (replay.metrics(), {"device", "vaults", "links"}),
    ):
        assert view, "metrics view should not be empty"
        assert prefixes <= {k.split(".", 1)[0] for k in view}
        for key, value in view.items():
            assert "." in key
            assert not isinstance(value, dict), f"{key} is not flat"


# -- the attachment contract: one Observers bundle per model -----------------


def _all_on():
    from repro.obs import AttributionCollector, SimProfiler, Timeline

    return Observers(
        tracer=EventTracer(),
        attrib=AttributionCollector(),
        timeline=Timeline(epoch=256),
        profiler=SimProfiler(),
    )


def _requests():
    from repro.eval.runner import cached_trace
    from repro.trace.record import to_requests

    return list(to_requests(cached_trace(WORKLOAD, seed=0, **SIZING)))


def _build_mac(obs):
    from repro.core.mac import MAC

    return MAC(obs=obs)


def _build_node(obs):
    from repro.node.node import Node

    per_core = {}
    for req in _requests():
        per_core.setdefault(req.core, []).append(req)
    return Node([iter(r) for _, r in sorted(per_core.items())], obs=obs)


def _build_numa(obs):
    from repro.eval.runner import numa_streams
    from repro.node.system import NUMASystem

    return NUMASystem(
        numa_streams("GUPS", 2, threads=2, ops_per_thread=100), obs=obs
    )


def _drive(model):
    """Run ``model`` to completion; returns the MAC's packets (or None)."""
    if hasattr(model, "process"):
        return model.process(_requests())
    model.run()
    return None


MODELS = {"mac": _build_mac, "node": _build_node, "numa": _build_numa}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_all_four_instruments_change_nothing(kind):
    from repro.obs import NO_OBSERVERS

    obs = _all_on()
    base, observed = MODELS[kind](NO_OBSERVERS), MODELS[kind](obs)
    base_packets, packets = _drive(base), _drive(observed)

    # Every instrument actually observed the run...
    assert len(obs.tracer) > 0
    assert obs.timeline.series_names()
    assert obs.profiler.ticks > 0
    assert obs.attrib.stalls or obs.attrib.finalized
    # ...and perturbed nothing.
    assert packets == base_packets
    assert observed.cycle == base.cycle
    assert observed.stats.snapshot() == base.stats.snapshot()
    assert observed.metrics() == base.metrics()


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_profiler_assigned_after_construction_is_driven(kind):
    """Benchmark harnesses attach ``model.profiler`` after building it."""
    from repro.obs import NO_OBSERVERS, SimProfiler

    model = MODELS[kind](NO_OBSERVERS)
    profiler = model.profiler = SimProfiler()
    _drive(model)
    assert model.profiler is profiler
    assert profiler.ticks > 0
    assert profiler.final_cycle == model.cycle
    # The shared default bundle is untouched.
    assert NO_OBSERVERS.profiler is not profiler
