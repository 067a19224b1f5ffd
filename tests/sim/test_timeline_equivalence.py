"""Serial ≡ sharded timeline and trace collection (DESIGN.md section 13).

The PDES workers sample timeline epochs and trace events shard-locally
and the parent merges them at the window barriers; these tests pin the
contract that made ``event tracing enabled`` disappear from
``shard_blockers()``: the merged artifacts are equal to what the serial
run records — timelines bit-identically, traces up to the canonical
(cycle, channel, name, args) order the parent sorts by.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MACConfig, SystemConfig
from repro.eval.parallel import pool_available
from repro.node.system import NUMASystem
from repro.obs import EventTracer, Observers, Timeline, canonical_key

from tests.sim.test_shard_equivalence import make_requests, outcome

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="fork-based shard workers unavailable"
)


def build(spec, **instruments):
    nodes, cores = spec[0], spec[1]
    return NUMASystem(
        [
            [iter(make_requests(spec, n, c)) for c in range(cores)]
            for n in range(nodes)
        ],
        system=SystemConfig(mac=MACConfig(arq_entries=32)),
        interconnect_latency=23,
        interleave_bytes=256,
        obs=Observers(**instruments),
    )


def canonical_events(tracer):
    return sorted(tracer.events(), key=canonical_key)


mesh_specs = st.tuples(
    st.integers(min_value=2, max_value=4),  # nodes
    st.integers(min_value=1, max_value=2),  # cores per node
    st.integers(min_value=4, max_value=24),  # requests per core
    st.integers(min_value=1, max_value=32),  # distinct rows
    st.integers(min_value=0, max_value=2**16),  # stream seed
    st.booleans(),  # sprinkle fences
)


class TestTimelineShardEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(spec=mesh_specs, shards=st.integers(min_value=2, max_value=3))
    def test_random_meshes_merge_bit_identically(self, spec, shards):
        serial = build(spec, timeline=Timeline(epoch=64))
        serial.run(engine="skip", shards=1)
        sharded = build(spec, timeline=Timeline(epoch=64))
        sharded.run(shards=shards)
        assert sharded.shard_report is not None
        assert sharded.obs.timeline.export() == serial.obs.timeline.export()
        assert outcome(sharded) == outcome(serial)

    def test_four_shard_timeline_and_trace_merge(self):
        spec = (4, 2, 20, 16, 11, True)
        serial = build(spec, timeline=Timeline(epoch=128), tracer=EventTracer())
        serial.run(engine="skip", shards=1)
        sharded = build(spec, timeline=Timeline(epoch=128), tracer=EventTracer())
        sharded.run(shards=4)
        assert sharded.shard_report.shards == 4
        assert sharded.obs.timeline.export() == serial.obs.timeline.export()
        s_tracer, p_tracer = sharded.obs.tracer, serial.obs.tracer
        assert canonical_events(s_tracer) == canonical_events(p_tracer)
        assert s_tracer.dropped == p_tracer.dropped == 0
        # The merged ring remembers where events came from.
        counts = s_tracer.shard_counts
        assert counts is not None and sum(counts.values()) == len(s_tracer)
        assert outcome(sharded) == outcome(serial)

    def test_timeline_never_changes_the_run(self):
        spec = (3, 2, 18, 12, 5, False)
        plain = build(spec)
        plain.run(shards=2)
        timed = build(spec, timeline=Timeline(epoch=64))
        timed.run(shards=2)
        assert outcome(timed) == outcome(plain)

    def test_tracing_no_longer_blocks_sharding(self):
        spec = (2, 1, 10, 8, 2, False)
        system = build(spec, tracer=EventTracer())
        assert "event tracing enabled" not in system.shard_blockers()
        assert not system.shard_blockers()
        system.run(shards=2)
        assert system.shard_report is not None
        assert len(system.obs.tracer) > 0
