"""PackedTrace: the trace cache's one-array-per-trace storage."""

import gc
import sys
from array import array
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import RequestType
from repro.eval.runner import cached_trace, clear_trace_cache
from repro.seeding import DEFAULT_SEED
from repro.trace.record import PackedTrace, TraceRecord, to_requests
from repro.workloads.registry import make

records_strategy = st.lists(
    st.builds(
        TraceRecord,
        op=st.sampled_from(list(RequestType)),
        addr=st.integers(0, (1 << 52) - 1),
        size=st.integers(1, 256),
        tid=st.integers(0, 5) | st.integers(0, 0xFFFF),
        core=st.integers(0, 7),
        cycle=st.integers(0, 1 << 40),
    ),
    max_size=80,
)


def field_values(requests):
    names = [f.name for f in fields(requests[0])] if requests else []
    return [tuple(getattr(r, n) for n in names) for r in requests]


def generate(name, threads, ops):
    """The trace as a list of ``TraceRecord`` tuples."""
    trace = make(name, seed=DEFAULT_SEED).generate(threads=threads, ops_per_thread=ops)
    return list(trace.records())


class TestPackedTrace:
    @settings(max_examples=60, deadline=None)
    @given(records=records_strategy)
    def test_iterates_the_records_as_int_tuples(self, records):
        packed = PackedTrace(records)
        assert len(packed) == len(records)
        out = list(packed)
        assert out == [tuple(rec) for rec in records]
        assert all(type(v) is int for rec in out for v in rec)

    @settings(max_examples=60, deadline=None)
    @given(records=records_strategy, node=st.integers(0, 63))
    def test_to_requests_matches_the_records(self, records, node):
        got = list(to_requests(PackedTrace(records), node=node))
        assert field_values(got) == field_values(list(to_requests(records, node=node)))
        assert all(r.rtype is rec.op for r, rec in zip(got, records))

    def test_cached_trace_converts_like_its_records(self):
        """``to_requests(packed, node=3)`` equals the records', field by field."""
        records = generate("MG", 4, 1000)
        got = list(to_requests(cached_trace("MG", 4, 1000, DEFAULT_SEED), node=3))
        want = list(to_requests(records, node=3))
        assert len(got) == len(records) == 4000
        assert field_values(got) == field_values(want)
        assert all(type(r.rtype) is RequestType for r in got)

    def test_equality_compares_the_records(self):
        records = generate("SG", 2, 50)
        assert PackedTrace(records) == PackedTrace(iter(records))
        assert PackedTrace(records) != PackedTrace(records[:-1])
        assert PackedTrace(records) != records

    def test_storage_is_48_bytes_per_record(self):
        packed = PackedTrace(generate("SG", 2, 2000))
        storage = sys.getsizeof(packed._data) - sys.getsizeof(array("q"))
        assert storage == 48 * len(packed) == 48 * 4000

    @pytest.mark.parametrize(
        "record",
        [
            TraceRecord(RequestType.LOAD, 1 << 63),
            TraceRecord(RequestType.LOAD, 0x100, cycle=-(1 << 63) - 1),
            TraceRecord(RequestType.STORE, 0x100, tid=1 << 64),
        ],
    )
    def test_field_outside_int64_raises(self, record):
        with pytest.raises(OverflowError):
            PackedTrace([TraceRecord(RequestType.LOAD, 0x40), record])

    def test_records_need_six_fields(self):
        with pytest.raises(ValueError, match="6 fields"):
            PackedTrace([(0, 0x100, 8, 0, 0)])


def test_caching_a_trace_adds_constant_tracked_objects():
    """A cache miss keeps one array, not one tracked tuple per record."""
    cached_trace("SG", 2, 1999)  # import and warm everything a miss touches
    clear_trace_cache()
    gc.collect()
    before = len(gc.get_objects())
    trace = cached_trace("SG", 2, 2000)
    gc.collect()
    after = len(gc.get_objects())
    assert len(trace) == 4000
    assert after - before < 50
