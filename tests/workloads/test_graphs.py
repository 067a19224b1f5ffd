"""Tests for the CSR graph substrate."""

import hashlib

import numpy as np
import pytest

from repro.workloads import graphs, make
from repro.workloads.graphs import (
    clear_graph_memo,
    edges_to_csr,
    rmat_csr,
    rmat_edges,
)
from repro.workloads.grappolo import _community_graph

#: sha256 of ``row_ptr.tobytes() + neighbors.tobytes()`` for the graphs
#: the paper suite traverses, computed before the builders were memoized.
RMAT_14_16_2019_SHA256 = "5b6c453a535c023c6ea4c984ffff336abaf4032b4ad12f7509bfde881903e4db"
GRAPPOLO_DEFAULT_SHA256 = "d179a335f2b23a109add43ca5ddd96125498fe2e190cf25ca9f279cc65f0cc29"


def random_csr(n, degree, seed):
    edges = np.random.default_rng(seed).integers(0, n, size=(n * degree, 2))
    return edges_to_csr(edges, n)


def csr_sha256(g):
    return hashlib.sha256(g.row_ptr.tobytes() + g.neighbors.tobytes()).hexdigest()


class TestEdgesToCSR:
    def test_simple_graph(self):
        edges = np.array([[0, 1], [0, 2], [2, 1]])
        g = edges_to_csr(edges, 3)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.degree(0) == 2
        assert g.degree(1) == 0
        assert sorted(g.neighbors_of(0).tolist()) == [1, 2]
        assert g.neighbors_of(2).tolist() == [1]

    def test_row_ptr_monotone(self):
        g = random_csr(100, degree=5, seed=1)
        assert (np.diff(g.row_ptr) >= 0).all()
        assert g.row_ptr[0] == 0
        assert g.row_ptr[-1] == g.num_edges

    def test_degrees_sum_to_edges(self):
        g = random_csr(64, degree=8, seed=2)
        assert sum(g.degree(v) for v in range(64)) == g.num_edges


class TestRMAT:
    def test_shape_and_range(self):
        edges = rmat_edges(8, edge_factor=4, seed=3)
        assert edges.shape == (256 * 4, 2)
        assert edges.min() >= 0 and edges.max() < 256

    def test_deterministic(self):
        a = rmat_edges(8, seed=5)
        b = rmat_edges(8, seed=5)
        assert (a == b).all()

    def test_uncached_csr_builds_agree(self):
        """Two independent builds (not the memoized object) are identical."""
        a = graphs._rmat_csr.__wrapped__(8, 16, 5)
        b = edges_to_csr(rmat_edges(8, 16, seed=5), 1 << 8)
        assert a is not b
        assert (a.row_ptr == b.row_ptr).all()
        assert (a.neighbors == b.neighbors).all()

    def test_seeds_differ(self):
        a = rmat_edges(8, seed=5)
        b = rmat_edges(8, seed=6)
        assert not (a == b).all()

    def test_power_law_degrees(self):
        """R-MAT produces hubs: the max degree far exceeds the mean."""
        g = rmat_csr(11, edge_factor=16, seed=7)
        degrees = np.diff(g.row_ptr)
        assert degrees.max() > 8 * degrees.mean()

class TestRMATValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(a=0.5, b=0.5, c=0.0), r"a \+ b must be < 1, got a=0.5, b=0.5"),
            (dict(a=0.6, b=0.3, c=0.3), r"a \+ b \+ c must be <= 1, got a=0.6, b=0.3, c=0.3"),
            (dict(a=-0.1), r"quadrant probability a must be >= 0, got -0.1"),
            (dict(b=-0.2), r"quadrant probability b must be >= 0, got -0.2"),
            (dict(c=-0.3), r"quadrant probability c must be >= 0, got -0.3"),
            (dict(edge_factor=0), r"edge_factor must be >= 1, got 0"),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            rmat_edges(4, **kwargs)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match=r"scale must be >= 0, got -1"):
            rmat_edges(-1)

    def test_boundary_probabilities_accepted(self):
        """d = 0 (a + b + c == 1) and c = 0 are legal R-MAT settings."""
        assert rmat_edges(4, a=0.5, b=0.25, c=0.25, seed=1).shape == (16 * 16, 2)
        assert rmat_edges(4, a=0.5, b=0.25, c=0.0, seed=1).shape == (16 * 16, 2)

    @pytest.mark.parametrize("args", [(-1,), (4, 0)])
    def test_csr_checks_before_the_memo(self, args):
        before = graphs._rmat_csr.cache_info()
        with pytest.raises(ValueError, match="rmat: "):
            rmat_csr(*args)
        after = graphs._rmat_csr.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses, before.currsize,
        )


class TestGoldenGraphs:
    """Absolute pins: the memo must not change a single byte of a graph."""

    def test_rmat_14_16_2019(self):
        assert csr_sha256(rmat_csr(14, 16, 2019)) == RMAT_14_16_2019_SHA256
        assert csr_sha256(graphs._rmat_csr.__wrapped__(14, 16, 2019)) == (
            RMAT_14_16_2019_SHA256
        )

    def test_grappolo_default_community_graph(self):
        assert csr_sha256(make("GRAPPOLO").graph) == GRAPPOLO_DEFAULT_SHA256
        uncached = _community_graph.__wrapped__(
            1 << 14, 256, degree=12, intra_prob=0.93, seed=2019
        )
        assert csr_sha256(uncached) == GRAPPOLO_DEFAULT_SHA256


class TestGraphMemo:
    def test_rmat_workloads_share_one_graph(self):
        assert make("SSCA2").graph is make("BFS").graph is make("PR").graph

    def test_seed_and_graph_scale_give_new_graphs(self):
        base = make("BFS", graph_scale=8)
        assert make("PR", graph_scale=8).graph is base.graph
        assert make("BFS", seed=7, graph_scale=8).graph is not base.graph
        assert make("BFS", graph_scale=9).graph.num_vertices == 1 << 9
        assert make("BFS", graph_scale=8).graph.num_vertices == 1 << 8

    @pytest.mark.parametrize("name", ["SSCA2", "GRAPPOLO"])
    def test_shared_arrays_are_read_only(self, name):
        g = make(name).graph
        with pytest.raises(ValueError, match="read-only"):
            g.neighbors[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            g.row_ptr[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            g.neighbors_of(0)[:] = 0

    def test_clear_drops_every_graph(self):
        rmat_csr(8, 16, 5)
        make("GRAPPOLO", vertices=1 << 8)
        clear_graph_memo()
        assert graphs._rmat_csr.cache_info().currsize == 0
        assert _community_graph.cache_info().currsize == 0

    def test_memo_is_bounded(self):
        clear_graph_memo()
        for seed in range(graphs.GRAPH_MEMO_SIZE + 2):
            rmat_csr(6, 4, seed)
        assert graphs._rmat_csr.cache_info().currsize == graphs.GRAPH_MEMO_SIZE
