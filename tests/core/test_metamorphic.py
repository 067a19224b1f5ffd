"""Metamorphic property tests of the coalescing semantics.

These check that the window engine respects structural symmetries of the
problem — transformations of the input trace with predictable effects on
the output packet stream.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import MACConfig
from repro.core.mac import coalesce_trace_fast
from repro.core.request import MemoryRequest, RequestType
from repro.core.stats import MACStats

CFG = MACConfig(latency_hiding=False)


def trace_of(seed, n=400, rows=30):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        rtype = RequestType.STORE if rng.random() < 0.3 else RequestType.LOAD
        addr = (rng.randrange(rows) << 8) | (rng.randrange(16) << 4)
        out.append(MemoryRequest(addr=addr, rtype=rtype, tid=i % 8, tag=i))
    return out


def clone(reqs):
    return [
        MemoryRequest(addr=r.addr, rtype=r.rtype, tid=r.tid, tag=r.tag) for r in reqs
    ]


def run(reqs, cfg=CFG):
    stats = MACStats()
    pkts = coalesce_trace_fast(reqs, cfg, stats=stats)
    return pkts, stats


def signature(pkts):
    """Order-insensitive packet structure: (offset-in-row, size, tags)."""
    return sorted(
        (p.addr & 0xFF, p.size, tuple(sorted(r.tag for r in p.requests)))
        for p in pkts
    )


class TestTranslationInvariance:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), shift_rows=st.integers(1, 1 << 30))
    def test_shifting_by_whole_rows_preserves_structure(self, seed, shift_rows):
        """Adding a row-multiple to every address relabels rows but must
        not change what gets merged with what."""
        base = trace_of(seed)
        shifted = [
            MemoryRequest(
                addr=r.addr + (shift_rows << 8), rtype=r.rtype, tid=r.tid, tag=r.tag
            )
            for r in base
        ]
        assert signature(run(clone(base))[0]) == signature(run(shifted)[0])


class TestFenceDecomposition:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), cut=st.integers(1, 399))
    def test_fence_split_equals_separate_runs(self, seed, cut):
        """A fence at position k makes the run equal to coalescing the
        two halves independently."""
        base = trace_of(seed)
        fenced = clone(base[:cut]) + [
            MemoryRequest(addr=0, rtype=RequestType.FENCE)
        ] + clone(base[cut:])
        pkts_fenced, _ = run(fenced)
        pkts_a, _ = run(clone(base[:cut]))
        pkts_b, _ = run(clone(base[cut:]))
        assert signature(pkts_fenced) == signature(pkts_a + pkts_b)


class TestMonotonicity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_larger_window_never_hurts(self, seed):
        """Doubling the ARQ can only merge more (on fence-free traces)."""
        base = trace_of(seed)
        _, small = run(clone(base), MACConfig(arq_entries=8, latency_hiding=False))
        _, large = run(clone(base), MACConfig(arq_entries=64, latency_hiding=False))
        assert large.coalescing_efficiency >= small.coalescing_efficiency - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_duplicating_trace_never_reduces_efficiency(self, seed):
        """Replaying a trace twice doubles same-row opportunities."""
        base = trace_of(seed, n=150)
        doubled = clone(base) + clone(base)
        _, once = run(clone(base))
        _, twice = run(doubled)
        assert twice.coalescing_efficiency >= once.coalescing_efficiency - 0.02


class TestTagIndependence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_tags_do_not_affect_packetization(self, seed):
        """Coalescing decisions depend only on addresses and types."""
        base = trace_of(seed)
        relabeled = [
            MemoryRequest(addr=r.addr, rtype=r.rtype, tid=0, tag=i % 65536)
            for i, r in enumerate(base)
        ]
        a = [(p.addr, p.size, p.raw_count) for p in run(clone(base))[0]]
        b = [(p.addr, p.size, p.raw_count) for p in run(relabeled)[0]]
        assert a == b
