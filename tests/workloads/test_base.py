"""Tests for the workload framework (layout, helpers, interleaving)."""

import numpy as np
import pytest

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile
from repro.workloads.base import MemoryLayout, ROW_BYTES, WORD, Workload


class TestMemoryLayout:
    def test_row_alignment(self):
        layout = MemoryLayout()
        a = layout.alloc("a", 100)
        b = layout.alloc("b", 100)
        assert a % ROW_BYTES == 0 and b % ROW_BYTES == 0

    def test_regions_do_not_share_rows(self):
        layout = MemoryLayout()
        a = layout.alloc("a", 100)
        b = layout.alloc("b", 100)
        assert (a + 100 - 1) // ROW_BYTES < b // ROW_BYTES

    def test_duplicate_name_rejected(self):
        layout = MemoryLayout()
        layout.alloc("a", 8)
        with pytest.raises(ValueError):
            layout.alloc("a", 8)

    def test_contains(self):
        layout = MemoryLayout()
        a = layout.alloc("a", 64)
        assert layout.contains("a", a)
        assert layout.contains("a", a + 63)
        assert not layout.contains("a", a + 64)

    def test_zero_alloc_rejected(self):
        with pytest.raises(ValueError):
            MemoryLayout().alloc("a", 0)

    def test_52_bit_space_enforced(self):
        layout = MemoryLayout(base=(1 << 52) - (1 << 12))
        with pytest.raises(MemoryError):
            layout.alloc("big", 1 << 13)


class TestHelpers:
    def test_spm_prefetch_flit_aligned(self):
        ops = list(Workload.spm_prefetch(0x1000, 8, 64))
        assert all(a % 16 == 0 for a, _, _ in ops)
        assert all(op is RequestType.LOAD for _, op, _ in ops)
        assert all(s == 16 for _, _, s in ops)
        # Covers [0x1000+0 .. 0x1000+8+64): 5 FLITs starting at 0x1000.
        assert [a for a, _, _ in ops] == [0x1000 + 16 * i for i in range(5)]

    def test_spm_writeback_stores(self):
        ops = list(Workload.spm_writeback(0x2000, 0, 32))
        assert len(ops) == 2
        assert all(op is RequestType.STORE for _, op, _ in ops)

    def test_zipf_indices_bounds(self):
        rng = np.random.default_rng(1)
        idx = Workload.zipf_indices(rng, 1000, 500, s=1.1)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_seq_loads(self):
        ops = list(Workload.seq_loads(0x100, start=2, count=3))
        assert [a for a, _, _ in ops] == [0x110, 0x118, 0x120]


class _TwoOpWorkload(Workload):
    name = "TWO"
    profile = ExecutionProfile("TWO", ipc=1.0, rpi=0.5, mem_access_rate=1.0)

    def thread_stream(self, tid, threads, ops, rng):
        for i in range(ops):
            yield (tid << 12) | (i * WORD), RequestType.LOAD, WORD


class TestGenerate:
    def test_round_robin_interleave(self):
        wl = _TwoOpWorkload()
        trace = wl.generate(threads=2, ops_per_thread=3)
        assert [r.tid for r in trace] == [0, 1, 0, 1, 0, 1]

    def test_cycle_stamps_monotone(self):
        wl = _TwoOpWorkload()
        trace = wl.generate(threads=4, ops_per_thread=10)
        cycles = [r.cycle for r in trace]
        assert cycles == sorted(cycles)

    def test_offered_rate_matches_profile(self):
        wl = _TwoOpWorkload()
        trace = wl.generate(threads=8, ops_per_thread=100)
        span = trace[-1].cycle - trace[0].cycle + 1
        rpc = len(trace) / span
        assert rpc == pytest.approx(wl.profile.rpc(8), rel=0.1)

    def test_determinism(self):
        a = _TwoOpWorkload(seed=5).generate(threads=2, ops_per_thread=5)
        b = _TwoOpWorkload(seed=5).generate(threads=2, ops_per_thread=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            _TwoOpWorkload().generate(threads=0)
        with pytest.raises(ValueError):
            _TwoOpWorkload().generate(ops_per_thread=0)
        with pytest.raises(ValueError):
            _TwoOpWorkload(scale=0)


class _UnevenWorkload(_TwoOpWorkload):
    """Thread ``t`` yields ``t + 1`` ops, whatever ``ops`` asks for."""

    def thread_stream(self, tid, threads, ops, rng):
        for i in range(tid + 1):
            yield (tid << 12) | (i * WORD), RequestType.LOAD, WORD


class TestInterleave:
    def test_uneven_streams(self):
        trace = _UnevenWorkload().generate(threads=3, ops_per_thread=1)
        # Round r takes the r-th op of each thread that still has one.
        assert [r.tid for r in trace] == [0, 1, 2, 1, 2, 2]
        assert [r.addr & 0xFFF for r in trace] == [0, 0, 0, 8, 8, 16]
        assert [r.core for r in trace] == [r.tid for r in trace]
