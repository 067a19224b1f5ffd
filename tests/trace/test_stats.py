"""Execution-statistics tests (Equation 2, trace summaries)."""

import pytest

from repro.core.request import RequestType
from repro.trace.record import TraceRecord
from repro.trace.stats import ExecutionProfile, summarize


def rec(addr, op=RequestType.LOAD, tid=0, cycle=0):
    return TraceRecord(op, addr, 8, tid, 0, cycle)


class TestExecutionProfile:
    def test_rpc_formula(self):
        p = ExecutionProfile("X", ipc=2.0, rpi=0.5, mem_access_rate=0.5)
        assert p.rpc(cores=8) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionProfile("X", ipc=0, rpi=0.5, mem_access_rate=0.5)
        with pytest.raises(ValueError):
            ExecutionProfile("X", ipc=1, rpi=1.5, mem_access_rate=0.5)
        with pytest.raises(ValueError):
            ExecutionProfile("X", ipc=1, rpi=0.5, mem_access_rate=0)
        with pytest.raises(ValueError):
            ExecutionProfile("X", ipc=1, rpi=0.5, mem_access_rate=0.5).rpc(0)


class TestSummarize:
    def test_counts(self):
        trace = [
            rec(0x100, RequestType.LOAD, tid=0, cycle=0),
            rec(0x200, RequestType.STORE, tid=1, cycle=5),
            rec(0, RequestType.FENCE, tid=0, cycle=6),
            rec(0x300, RequestType.ATOMIC, tid=0, cycle=9),
        ]
        s = summarize(trace)
        assert s.loads == 1 and s.stores == 1 and s.fences == 1 and s.atomics == 1
        assert s.memory_operations == 3
        assert s.distinct_threads == 2
        assert s.span_cycles == 10
        assert s.load_fraction == pytest.approx(1 / 3)
        assert s.requests_per_cycle == pytest.approx(0.3)

    def test_empty(self):
        s = summarize([])
        assert s.operations == 0
        assert s.requests_per_cycle == 0.0
