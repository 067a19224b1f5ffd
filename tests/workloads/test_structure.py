"""Structural assertions per workload — each generator must carry the
access-pattern features its benchmark is modelled on."""

import collections


from repro.core.request import RequestType
from repro.workloads.registry import make


def records_of(name, threads=4, ops=800, **kw):
    trace = make(name, **kw).generate(threads=threads, ops_per_thread=ops)
    return list(trace.records())


def region_of(wl, rec, names):
    for n in names:
        if wl.layout.contains(n, rec.addr):
            return n
    return None


class TestSG:
    def test_three_region_mix(self):
        wl = make("SG")
        trace = list(wl.generate(threads=2, ops_per_thread=600).records())
        counts = collections.Counter(
            region_of(wl, r, ("A", "B", "C")) for r in trace
        )
        # All three arrays are touched; B (the gather) dominates word ops.
        assert counts["A"] > 0 and counts["B"] > 0 and counts["C"] > 0

    def test_streams_are_flit_sized_blocks(self):
        wl = make("SG")
        trace = list(wl.generate(threads=2, ops_per_thread=600).records())
        for r in trace:
            region = region_of(wl, r, ("A", "C"))
            if region:
                assert r.size == 16  # SPM block transfer granularity

    def test_gathers_are_word_sized_loads(self):
        wl = make("SG")
        trace = list(wl.generate(threads=2, ops_per_thread=600).records())
        b_recs = [r for r in trace if region_of(wl, r, ("B",))]
        assert all(r.size == 8 and r.op is RequestType.LOAD for r in b_recs)


class TestHPCG:
    def test_multicolor_ordering_strides_rows(self):
        """Consecutive matrix rows of one thread are `colors` apart."""
        wl = make("HPCG")
        trace = list(wl.generate(threads=1, ops_per_thread=2000).records())
        y_stores = [
            r.addr for r in trace
            if r.op is RequestType.STORE and wl.layout.contains("y", r.addr)
        ]
        assert len(y_stores) >= 2
        base = wl.layout.base("y")
        rows = [(a - base) // 8 for a in y_stores]
        diffs = {b - a for a, b in zip(rows, rows[1:])}
        assert 8 in diffs  # the color stride


class TestGrappolo:
    def test_community_gathers_cluster(self):
        """>60 % of comm_id gathers land within a few rows of each
        other — the planted community structure."""
        wl = make("GRAPPOLO")
        trace = list(wl.generate(threads=1, ops_per_thread=2000).records())
        comm_reads = [
            r.addr >> 8
            for r in trace
            if r.op is RequestType.LOAD and wl.layout.contains("comm_id", r.addr)
        ]
        assert comm_reads
        counts = collections.Counter(comm_reads)
        top_rows = sum(n for _, n in counts.most_common(16))
        assert top_rows / len(comm_reads) > 0.3


class TestSSCA2:
    def test_hub_bias(self):
        """Edge-centric selection revisits high-degree vertices."""
        wl = make("SSCA2")
        trace = list(wl.generate(threads=2, ops_per_thread=1500).records())
        nbr_reads = [
            r.addr
            for r in trace
            if wl.layout.contains("neighbors", r.addr)
        ]
        counts = collections.Counter(a >> 8 for a in nbr_reads)
        if counts:
            top = counts.most_common(1)[0][1]
            assert top > len(nbr_reads) / len(counts)  # skewed, not uniform


class TestSP:
    def test_three_sweep_directions(self):
        """The ADI pattern emits both blocked (16 B) and strided (8 B)
        rhs accesses — x-sweeps vs y/z sweeps."""
        wl = make("SP")
        trace = list(wl.generate(threads=2, ops_per_thread=3000).records())
        rhs = [r for r in trace if wl.layout.contains("rhs", r.addr)]
        sizes = {r.size for r in rhs}
        assert sizes == {8, 16}


class TestIS:
    def test_histogram_load_store_pairs(self):
        wl = make("IS")
        trace = list(wl.generate(threads=1, ops_per_thread=600).records())
        hist = [r for r in trace if wl.layout.contains("histogram", r.addr)]
        # Pairs: each bucket update is load then store on the same address.
        for ld, st_ in zip(hist[::2], hist[1::2]):
            assert ld.op is RequestType.LOAD
            assert st_.op is RequestType.STORE
            assert ld.addr == st_.addr


class TestNQueens:
    def test_stack_locality_dominates(self):
        wl = make("NQUEENS")
        trace = list(wl.generate(threads=1, ops_per_thread=800).records())
        stack0 = wl.stacks[0]
        stack_ops = sum(1 for r in trace if stack0 <= r.addr < stack0 + wl.stack_bytes)
        heap_ops = sum(1 for r in trace if wl.layout.contains("task_heap", r.addr))
        assert stack_ops > heap_ops


class TestMG:
    def test_fine_and_coarse_phases(self):
        wl = make("MG")
        trace = list(wl.generate(threads=1, ops_per_thread=3000).records())
        sizes = collections.Counter(r.size for r in trace)
        assert sizes[16] > 0  # pencil block transfers
        assert sizes[8] > 0  # coarse-level strided words
        assert sizes[16] > sizes[8]  # fine sweeps dominate
