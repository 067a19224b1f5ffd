"""Behavioural tests over the 12-benchmark suite."""

import pytest

from repro.core.config import MACConfig
from repro.core.mac import coalesce_trace_fast
from repro.core.request import RequestType
from repro.core.stats import MACStats
from repro.trace.record import to_requests
from repro.workloads.registry import AUXILIARY, BENCHMARKS, benchmark_names, make

ALL_NAMES = benchmark_names()


@pytest.fixture(scope="module")
def small_traces():
    return {
        name: list(make(name).generate(threads=4, ops_per_thread=600).records())
        for name in ALL_NAMES
    }


def efficiency(trace):
    st = MACStats()
    coalesce_trace_fast(list(to_requests(trace)), MACConfig(), stats=st)
    return st.coalescing_efficiency


class TestRegistry:
    def test_twelve_benchmarks(self):
        assert len(BENCHMARKS) == 12

    def test_make_case_insensitive(self):
        assert make("sg").name == "SG"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make("NOPE")

    def test_auxiliary(self):
        assert make("SG-SEQ").name == "SG-SEQ"
        assert "SG-SEQ" in AUXILIARY

    def test_paper_figure_order(self):
        assert ALL_NAMES[0] == "SG"
        assert set(ALL_NAMES) >= {"MG", "GRAPPOLO", "SG", "SP", "SPARSELU"}


class TestTraceWellFormedness:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_generates_requested_volume(self, small_traces, name):
        trace = small_traces[name]
        assert len(trace) >= 4 * 600

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_addresses_in_52_bit_space(self, small_traces, name):
        for rec in small_traces[name]:
            assert 0 <= rec.addr < (1 << 52)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_threads_all_present(self, small_traces, name):
        assert {r.tid for r in small_traces[name]} == {0, 1, 2, 3}

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_has_loads(self, small_traces, name):
        ops = {r.op for r in small_traces[name]}
        assert RequestType.LOAD in ops

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_deterministic(self, name):
        a = make(name, seed=3).generate(threads=2, ops_per_thread=100)
        b = make(name, seed=3).generate(threads=2, ops_per_thread=100)
        assert a == b

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_profiles_offer_over_2_rpc(self, name):
        """Fig. 9: every benchmark offers more than 2 requests/cycle."""
        assert BENCHMARKS[name].profile.rpc(cores=8) > 2.0


class TestCoalescingShape:
    """The per-benchmark ordering the paper's Fig. 10 reports."""

    def test_winners_beat_losers(self, small_traces):
        winners = min(efficiency(small_traces[n]) for n in ("MG", "SP", "SPARSELU"))
        losers = max(efficiency(small_traces[n]) for n in ("IS", "PR"))
        assert winners > losers

    def test_is_is_least_coalescable(self, small_traces):
        effs = {n: efficiency(small_traces[n]) for n in ALL_NAMES}
        assert min(effs, key=effs.get) in ("IS", "PR", "SSCA2")

    def test_all_benchmarks_coalesce_something(self, small_traces):
        for name in ALL_NAMES:
            assert efficiency(small_traces[name]) > 0.05, name

    def test_store_load_mix(self, small_traces):
        """Every benchmark issues some stores (real kernels write).

        BFS is exempt at this tiny scale: its hub-first visit order can
        spend the whole 600-op budget streaming one hub's adjacency
        before the first parent[] update; the larger check below covers
        it.
        """
        for name in ALL_NAMES:
            if name == "BFS":
                continue
            ops = [r.op for r in small_traces[name]]
            assert ops.count(RequestType.STORE) > 0, name

    def test_bfs_stores_at_realistic_scale(self):
        trace = make("BFS").generate(threads=4, ops_per_thread=4000)
        ops = [r.op for r in trace.records()]
        assert ops.count(RequestType.STORE) > 0


class TestSGSpecifics:
    def test_uniform_gather_mode(self):
        wl = make("SG", hot_frac=0.0)
        trace = wl.generate(threads=2, ops_per_thread=400)
        # Uniform gathers over 2^20 elements: coalescing falls well
        # below the default hot/cold configuration.
        assert efficiency(trace) < efficiency(
            make("SG").generate(threads=2, ops_per_thread=400)
        )

    def test_layout_has_three_arrays(self):
        wl = make("SG")
        assert set(wl.layout.regions) == {"A", "B", "C"}

    def test_seq_variant_is_highly_coalescable(self):
        trace = make("SG-SEQ").generate(threads=2, ops_per_thread=400)
        assert efficiency(trace) > 0.8
