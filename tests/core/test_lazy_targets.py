"""Packet targets of the window and raw engines, built on first read.

``coalesce_trace_fast`` and ``dispatch_raw`` read a ``PackedTrace`` from
its op and address columns; each packet holds its targets as record
indices (:class:`repro.core.packet.Targets`) and builds the
``MemoryRequest``s when a reader first reads them.
"""

from array import array
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.direct import dispatch_raw
from repro.core.config import MACConfig
from repro.core.mac import coalesce_trace_fast
from repro.core.packet import Targets
from repro.core.request import MemoryRequest, RequestType
from repro.core.stats import MACStats
from repro.eval import experiments
from repro.eval.runner import dispatch, replay_on_device
from repro.obs.attribution import AttributionCollector
from repro.obs.observers import Observers
from repro.trace.record import PackedTrace, TraceRecord, to_requests

ENGINES = {
    "window": lambda trace, stats=None: coalesce_trace_fast(
        trace, MACConfig(arq_entries=4), stats=stats
    ),
    "raw": lambda trace, stats=None: dispatch_raw(trace, stats=stats),
}

#: Thread 0 fences that bring its tag counter to 0xFFFA, so the drawn
#: records of thread 0 that follow wrap past 0xFFFF.
WRAP_PREFIX = array("q", (int(RequestType.FENCE), 0, 8, 0, 0, 0) * 0xFFFA)

records_strategy = st.lists(
    st.builds(
        TraceRecord,
        op=st.sampled_from(list(RequestType)),
        # Four rows of 256 B, so rows merge, fill and split.
        addr=st.integers(0, 4 * 256 - 1).map(lambda a: 0x10000 + a),
        size=st.sampled_from([8, 16]),
        tid=st.integers(0, 2),
        core=st.integers(0, 3),
        cycle=st.integers(0, 1000),
    ),
    min_size=1,
    max_size=60,
).filter(lambda recs: len({r.tid for r in recs}) >= 2)


def field_values(requests):
    names = [f.name for f in fields(MemoryRequest)]
    return [tuple(getattr(r, n) for n in names) for r in requests]


@pytest.fixture
def constructions(monkeypatch):
    """Count every ``MemoryRequest`` built from here on."""
    calls = [0]
    init = MemoryRequest.__init__

    def counting_init(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MemoryRequest, "__init__", counting_init)
    return calls


def sg_trace():
    return PackedTrace(
        TraceRecord(op, 0x10000 + 0x40 * (i % 9), 8, i % 3, i % 2, i)
        for i, op in enumerate([RequestType.LOAD, RequestType.STORE] * 40)
    )


class TestBuiltTargets:
    @settings(max_examples=20, deadline=None)
    @given(records=records_strategy, wrap=st.booleans())
    def test_equal_to_requests_field_by_field(self, records, wrap):
        trace = PackedTrace(records)
        if wrap:
            trace = PackedTrace.from_array(WRAP_PREFIX + trace._data)
        want_requests = list(to_requests(trace))
        for engine in ENGINES.values():
            want_stats, got_stats = MACStats(), MACStats()
            want = engine(want_requests, want_stats)
            got = engine(trace, got_stats)
            assert got_stats == want_stats
            assert [(p.addr, p.size, p.rtype, p.bypassed) for p in got] == [
                (p.addr, p.size, p.rtype, p.bypassed) for p in want
            ]
            for g, w in zip(got, want):
                assert type(g.requests) is Targets
                assert field_values(g.requests) == field_values(w.requests)
                assert all(type(r.rtype) is RequestType for r in g.requests)

    def test_a_request_list_builds_its_own_objects(self):
        requests = list(to_requests(sg_trace()))
        for engine in ENGINES.values():
            built = [r for p in engine(requests) for r in p.requests]
            non_fence = [r for r in requests if not r.is_fence]
            assert sorted(map(id, built)) == sorted(map(id, non_fence))

    def test_tags_wrap_as_to_requests_wraps_them(self):
        tail = PackedTrace([TraceRecord(RequestType.LOAD, 0x10000, tid=0)] * 8)
        trace = PackedTrace.from_array(WRAP_PREFIX + tail._data)
        tags = [r.tag for p in dispatch_raw(trace) for r in p.requests]
        assert tags == [0xFFFA, 0xFFFB, 0xFFFC, 0xFFFD, 0xFFFE, 0xFFFF, 0, 1]


class TestBuiltOnce:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_second_read_returns_the_same_objects(self, engine):
        for pkt in ENGINES[engine](sg_trace()):
            first = list(pkt.requests)
            assert all(a is b for a, b in zip(first, pkt.requests))
            assert pkt.requests[0] is first[0]

    @pytest.mark.parametrize("policy", ["mac", "raw"])
    def test_attribution_marks_stick_through_replay(self, policy):
        res = dispatch("SG", policy, threads=2, ops_per_thread=200)
        attrib = AttributionCollector()
        replay_on_device(res.packets, obs=Observers(attrib=attrib))
        assert attrib.incomplete == 0
        assert attrib.finalized == res.stats.memory_raw_requests
        for pkt in res.packets:
            assert all(r.marks and "complete" in r.marks for r in pkt.requests)

    def test_copy_and_pickle_are_plain_built_lists(self):
        import copy
        import pickle

        pkt = dispatch_raw(sg_trace())[0]
        for clone in (copy.copy(pkt.requests), pickle.loads(pickle.dumps(pkt.requests))):
            assert type(clone) is list
            assert field_values(clone) == field_values(pkt.requests)


class TestNothingBuilt:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_len_and_stats_build_no_targets(self, engine, constructions):
        stats = MACStats()
        packets = ENGINES[engine](sg_trace(), stats)
        sizes = [len(p.requests) for p in packets]
        assert all(p.requests for p in packets)
        assert constructions[0] == 0
        assert stats.targets_per_packet == sizes
        assert stats.merged_requests == sum(sizes) == 80
        packets[0].requests[0]
        assert constructions[0] == sizes[0]

    def test_a_mac_cell_builds_no_requests(self, constructions):
        cell = experiments._mac_cell(("SG", 2, 500, (("arq_entries", 8),)))
        assert cell["raw_requests"] == 1000
        assert constructions[0] == 0


class TestTidRange:
    @pytest.mark.parametrize("bad", [70000, -1])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_out_of_range_tid_raises_as_to_requests_does(self, engine, bad):
        trace = PackedTrace(
            [
                TraceRecord(RequestType.LOAD, 0x100, tid=3),
                TraceRecord(RequestType.STORE, 0x200, tid=bad),
                TraceRecord(RequestType.LOAD, 0x300, tid=1 << 20),
            ]
        )
        with pytest.raises(ValueError) as want:
            list(to_requests(trace))
        with pytest.raises(ValueError) as got:
            ENGINES[engine](trace)
        assert str(got.value) == str(want.value) == f"tid {bad} outside 16-bit range"
