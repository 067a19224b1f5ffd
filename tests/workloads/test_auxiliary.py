"""Behavioural tests for the auxiliary (beyond-the-paper) workloads."""

import pytest

from repro.core.config import MACConfig
from repro.core.mac import coalesce_trace_fast
from repro.core.request import RequestType
from repro.core.stats import MACStats
from repro.trace.record import to_requests
from repro.workloads.registry import AUXILIARY, make

AUX_NAMES = [n for n in AUXILIARY if n != "SG-SEQ"]


def efficiency(trace):
    st = MACStats()
    coalesce_trace_fast(list(to_requests(trace)), MACConfig(), stats=st)
    return st.coalescing_efficiency


@pytest.fixture(scope="module")
def traces():
    return {
        name: list(make(name).generate(threads=4, ops_per_thread=700).records())
        for name in AUX_NAMES
    }


class TestWellFormedness:
    @pytest.mark.parametrize("name", AUX_NAMES)
    def test_addresses_valid(self, traces, name):
        for rec in traces[name]:
            assert 0 <= rec.addr < (1 << 52)

    @pytest.mark.parametrize("name", AUX_NAMES)
    def test_deterministic(self, name):
        a = make(name, seed=4).generate(threads=2, ops_per_thread=120)
        b = make(name, seed=4).generate(threads=2, ops_per_thread=120)
        assert a == b

    @pytest.mark.parametrize("name", AUX_NAMES)
    def test_offers_over_2_rpc(self, name):
        assert make(name).profile.rpc(cores=8) > 2.0

    @pytest.mark.parametrize("name", AUX_NAMES)
    def test_coalesces_something(self, traces, name):
        assert efficiency(traces[name]) > 0.05


class TestCharacter:
    def test_fib_issues_atomics(self, traces):
        """Work stealing probes are atomic head swaps."""
        ops = {r.op for r in traces["FIB"]}
        assert RequestType.ATOMIC in ops

    def test_tc_is_adjacency_bound(self, traces):
        """Triangle counting streams adjacency: high coalescibility."""
        assert efficiency(traces["TC"]) > 0.6

    def test_health_is_pointer_chasing(self, traces):
        """Linked-list walks coalesce poorly."""
        assert efficiency(traces["HEALTH"]) < 0.55

    def test_cg_between_is_and_mg(self, traces):
        """Random-pattern SpMV sits between the histogram and stencil."""
        cg = efficiency(traces["CG"])
        is_eff = efficiency(make("IS").generate(threads=4, ops_per_thread=700))
        mg_eff = efficiency(make("MG").generate(threads=4, ops_per_thread=700))
        assert is_eff < cg < mg_eff

    def test_ft_transpose_hurts(self, traces):
        """FT coalesces less than a pure unit-stride workload."""
        seq = efficiency(make("SG-SEQ").generate(threads=4, ops_per_thread=700))
        assert efficiency(traces["FT"]) < seq
