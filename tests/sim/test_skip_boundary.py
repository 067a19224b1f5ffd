"""Exact skip-boundary pins (the bulk-accounting audit of DESIGN.md §10).

``skip(start, end)`` / ``skip_to(end)`` spans are *half-open*: cycle
``end`` itself is never accounted by the skip — it belongs to the tick
that executes the wake.  The two off-by-one failure modes this suite
pins:

* a skip that accounts ``end`` double-counts the wake cycle (visible as
  a duplicated every-64th-cycle attribution sample when ``end`` is a
  multiple of 64);
* a skip that leaves the model *past* ``end`` swallows the wake — a
  completion landing exactly on the skip target would never deliver.

Every case compares against pure lockstep, which is the definition of
correct.
"""

import pytest

from repro.core.aggregator import RawRequestAggregator
from repro.core.config import MACConfig
from repro.core.request import MemoryRequest, RequestType
from repro.node.node import Node
from repro.obs import AttributionCollector, Observers


def make_aggregator():
    at = AttributionCollector()  # depth_stride=1: every offered sample kept
    return RawRequestAggregator(MACConfig(), obs=Observers(attrib=at)), at


class TestAggregatorBoundary:
    @pytest.mark.parametrize(
        ("start", "end"),
        [
            (0, 1),
            (0, 63),
            (0, 64),  # end exactly on a sample boundary
            (0, 65),
            (0, 128),
            (1, 64),
            (63, 64),  # one-cycle skip onto the boundary
            (64, 128),  # both ends on boundaries
            (65, 127),  # neither end on a boundary
            (100, 164),
        ],
    )
    def test_skip_replays_the_exact_lockstep_sample_sequence(self, start, end):
        lock, lock_at = make_aggregator()
        for _ in range(end):
            lock.tick(None)

        skip, skip_at = make_aggregator()
        for _ in range(start):
            skip.tick(None)
        skip.skip(start, end)

        assert skip.cycle == lock.cycle == end
        assert skip.stats.total_cycles == lock.stats.total_cycles
        assert skip_at.depth.series("arq") == lock_at.depth.series("arq")

        # The landing tick (cycle == end) samples iff end % 64 == 0 —
        # on both paths, exactly once.  A skip that had accounted cycle
        # ``end`` itself would duplicate this sample.
        lock.tick(None)
        skip.tick(None)
        assert skip_at.depth.series("arq") == lock_at.depth.series("arq")


def _streams(cores, ops, rows=4):
    return [
        iter(
            [
                MemoryRequest(
                    addr=((c * ops + i) % rows) << 8,
                    rtype=RequestType.LOAD,
                    tid=c,
                    tag=i,
                    core=c,
                )
                for i in range(ops)
            ]
        )
        for c in range(cores)
    ]


def _count_ticks(node):
    """Record the cycle number of every executed tick."""
    ticked = []
    orig = node.tick

    def tick():
        ticked.append(node.cycle)
        return orig()

    node.tick = tick
    return ticked


class TestNodeBoundary:
    def test_skip_to_stops_short_of_the_wake(self):
        """After ``skip_to(w)`` the wake cycle is still runnable."""
        node = Node(_streams(1, 4), lsq_capacity=1)
        # Tick until the node parks on a future wake (the in-flight
        # completion of the first load).
        wake = None
        for _ in range(10_000):
            node.tick()
            wake = node.next_event_cycle(node.cycle)
            if wake is not None and wake > node.cycle:
                break
        assert wake is not None and wake > node.cycle

        node.skip_to(wake)
        assert node.cycle == wake  # landed on, not past
        # The wake cycle itself was not consumed by the skip: the node
        # still reports work at ``wake`` for the following tick to run.
        assert node.next_event_cycle(node.cycle) == wake

    def test_wake_on_skip_target_matches_lockstep(self):
        """End-to-end: every skip lands on a cycle lockstep also ran."""
        lock = Node(_streams(2, 12), lsq_capacity=1)
        lock_ticks = _count_ticks(lock)
        lock.run(engine="lockstep")

        skip = Node(_streams(2, 12), lsq_capacity=1)
        skip_ticks = _count_ticks(skip)
        skip.run(engine="skip")

        assert skip.cycle == lock.cycle
        assert skip.metrics() == lock.metrics()
        # The stall-on-miss shape must actually skip...
        assert len(skip_ticks) < len(lock_ticks)
        # ...and every executed skip-side tick is one lockstep also ran
        # (same cycle numbers, no halves or overshoots).
        assert set(skip_ticks) <= set(lock_ticks)


class TestFabricWakeConformance:
    """The credit fabric's wake contract at skip boundaries.

    ``skip_to(target)`` uses half-open semantics: a hop landing exactly
    on the skip target must be *delivered* by the post-skip tick, never
    swallowed — the PDES windows lean on this to hand a shard exactly
    the hops with ``deliver_cycle`` inside its window.
    """

    def test_numa_skip_lands_on_hop_and_delivers_it(self):
        """System-level: a skip straight to a hop's deliver cycle works."""
        from repro.core.request import MemoryRequest, RequestType
        from repro.node.system import NUMASystem

        def remote_only(node):
            # One request whose home is the *other* node: forces a hop
            # out and a completion hop back, with idle spans between.
            yield MemoryRequest(
                addr=(1 - node) << 9,
                rtype=RequestType.LOAD,
                tid=0,
                tag=0,
                core=0,
                node=node,
            )

        lock = NUMASystem(
            [[remote_only(0)], [remote_only(1)]],
            interconnect_latency=300,
            interleave_bytes=1 << 9,
        )
        st_lock = lock.run(engine="lockstep")
        skip = NUMASystem(
            [[remote_only(0)], [remote_only(1)]],
            interconnect_latency=300,
            interleave_bytes=1 << 9,
        )
        st_skip = skip.run(engine="skip")
        assert st_skip.responses == st_lock.responses == 2
        assert skip.cycle == lock.cycle
        assert st_skip.snapshot() == st_lock.snapshot()
