"""Kernel tests: functional correctness + trace/coalescing behaviour.

These validate the DESIGN.md substitution at its strongest point: the
access patterns the synthetic workload generators emit match what an
actually executed program produces.
"""

import random

import pytest

from repro.core.config import MACConfig
from repro.core.mac import coalesce_trace_fast
from repro.core.request import RequestType
from repro.core.stats import MACStats
from repro.isa.kernels import run_gather, run_vector_copy
from repro.trace.record import to_requests


def efficiency(trace):
    st = MACStats()
    coalesce_trace_fast(list(to_requests(trace)), MACConfig(), stats=st)
    return st


class TestVectorCopy:
    def test_functional(self):
        m = run_vector_copy(elements=96)
        for i in range(96):
            assert m.peek(0x40000 + 8 * i) == i + 1

    def test_trace_is_pure_block_transfers(self):
        m = run_vector_copy(elements=64)
        assert all(r.size == 16 for r in m.trace)
        loads = sum(1 for r in m.trace if r.op is RequestType.LOAD)
        stores = sum(1 for r in m.trace if r.op is RequestType.STORE)
        assert loads == stores == 64 * 8 // 16  # one FLIT per 16 B

    def test_coalesces_like_the_synthetic_seq_workload(self):
        """The executed copy matches SG-SEQ's ~0.875 efficiency."""
        m = run_vector_copy(elements=128)
        st = efficiency(m.trace)
        assert st.coalescing_efficiency > 0.8

    def test_element_count_validated(self):
        with pytest.raises(ValueError):
            run_vector_copy(elements=33)


class TestGather:
    def test_functional(self):
        m = run_gather(count=48, seed=11, table_size=512)
        rng = random.Random(11)
        idx = [rng.randrange(512) for _ in range(48)]
        for i in range(48):
            assert m.peek(0xC0000 + 8 * i) == 3 * idx[i] + 1

    def test_gather_coalesces_worse_than_copy(self):
        g = efficiency(run_gather(count=96).trace)
        c = efficiency(run_vector_copy(elements=96).trace)
        assert g.coalescing_efficiency < c.coalescing_efficiency

    def test_window_resident_table_coalesces_well(self):
        """Shrinking the table below the ARQ window flips the result —
        the locality threshold the MAC lives on."""
        small = efficiency(run_gather(count=96, table_size=256).trace)
        big = efficiency(run_gather(count=96, table_size=1 << 15).trace)
        assert small.coalescing_efficiency > big.coalescing_efficiency + 0.2

    def test_trace_structure(self):
        m = run_gather(count=32)
        # Each iteration: idx load, table load, dst store = 3 records.
        assert len(m.trace) == 3 * 32
