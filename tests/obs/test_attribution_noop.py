"""Attribution must be observation-only: a disabled run is bit-identical.

The regression the ISSUE pins: running with attribution *enabled*
produces exactly the packets, stats and timing of a run holding the
:data:`NULL_ATTRIBUTION` no-op — the collector only ever reads
simulation state, so the stamps, stall charges and depth samples cannot
perturb results.  (Both runs here keep the same replay cadence;
``use_issue_cycles`` is a different arrival model, not an attribution
side effect, so it is exercised in the integration suite instead.)
"""

import pytest

from repro.eval.runner import attributed_node_run, dispatch, replay_on_device
from repro.obs import NO_OBSERVERS, NULL_ATTRIBUTION, Observers
from repro.obs.attribution import AttributionCollector

pytestmark = pytest.mark.obs

WORKLOAD = "IS"
SIZING = dict(threads=4, ops_per_thread=400)


def _run(attrib):
    obs = Observers(attrib=attrib)
    disp = dispatch(WORKLOAD, "mac-cycle", obs=obs, **SIZING)
    replay = replay_on_device(disp.packets, obs=obs)
    return disp, replay


def test_disabled_run_bit_identical_to_attributed_run():
    base_disp, base_replay = _run(NULL_ATTRIBUTION)
    attrib = AttributionCollector()
    at_disp, at_replay = _run(attrib)

    # The attributed run actually observed something...
    assert attrib.finalized > 0
    assert attrib.stalls, "expected at least one stall site"
    assert attrib.end_to_end.count == attrib.finalized

    # ...and perturbed nothing: identical packet streams (CoalescedRequest
    # is an eq-dataclass and MemoryRequest.marks is compare=False, so this
    # compares every simulated field) and identical stats, both sides.
    assert at_disp.packets == base_disp.packets
    assert at_disp.stats.snapshot() == base_disp.stats.snapshot()
    assert at_replay.device.stats.snapshot() == base_replay.device.stats.snapshot()
    assert at_replay.makespan == base_replay.makespan
    assert at_replay.mean_latency == base_replay.mean_latency


def test_disabled_closed_loop_node_is_bit_identical():
    """Same contract over the full node: cores -> MAC -> device -> delivery."""
    _, base = attributed_node_run(WORKLOAD, obs=NO_OBSERVERS, **SIZING)
    attrib, node = attributed_node_run(WORKLOAD, **SIZING)

    assert attrib.finalized > 0
    assert node.cycle == base.cycle
    assert node.mac.stats.snapshot() == base.mac.stats.snapshot()
    assert node.device.stats.snapshot() == base.device.stats.snapshot()


def test_disabled_requests_carry_no_marks():
    disp, _ = _run(NULL_ATTRIBUTION)
    for pkt in disp.packets[:32]:
        for raw in pkt.requests:
            assert raw.marks is None
