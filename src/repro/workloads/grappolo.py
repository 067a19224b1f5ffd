"""Grappolo — parallel Louvain community detection (PNNL).

The Louvain method's hot loop iterates the vertices of a community-
clustered graph: for each vertex it streams the CSR neighbour list and
looks up each neighbour's community id and community weight.  Because
vertices of the same community are relabelled to be contiguous as the
algorithm converges, those gathers concentrate on a small set of hot
rows — the high row locality behind Grappolo's >60 % coalescing
efficiency in Figs. 10/17.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .graphs import CSRGraph, edges_to_csr, graph_memo


@graph_memo
def _community_graph(
    n: int, communities: int, degree: int, intra_prob: float, seed: int
) -> CSRGraph:
    """Random graph with planted community structure.

    With probability ``intra_prob`` an edge stays inside its source's
    community (contiguous vertex ranges), otherwise it goes anywhere.
    Converged Louvain phases see >90 % intra-community edges.  Memoized
    per process (:func:`~repro.workloads.graphs.graph_memo`): read-only.
    """
    rng = np.random.default_rng(seed)
    m = n * degree
    src = rng.integers(0, n, size=m, dtype=np.int64)
    csize = n // communities
    comm = src // max(csize, 1)
    intra = rng.random(m) < intra_prob
    local = comm * csize + rng.integers(0, max(csize, 1), size=m)
    anywhere = rng.integers(0, n, size=m, dtype=np.int64)
    dst = np.where(intra, np.minimum(local, n - 1), anywhere)
    return edges_to_csr(np.stack([src, dst], axis=1), n)


class Grappolo(Workload):
    """Louvain modularity-optimization sweep."""

    name = "GRAPPOLO"
    suite = "graph"
    profile = ExecutionProfile("GRAPPOLO", ipc=2.70, rpi=0.44, mem_access_rate=0.86)

    def __init__(
        self,
        scale: int = 1,
        seed: int = 2019,
        vertices: int = 1 << 14,
        communities: int = 256,
    ) -> None:
        super().__init__(scale, seed)
        n = vertices * scale
        self.communities = communities
        self.graph = _community_graph(
            n, communities, degree=12, intra_prob=0.93, seed=seed
        )
        layout = MemoryLayout()
        self.row_ptr = layout.alloc("row_ptr", (n + 1) * WORD)
        self.neighbors = layout.alloc("neighbors", self.graph.num_edges * WORD)
        self.comm_id = layout.alloc("comm_id", n * WORD)
        self.comm_weight = layout.alloc("comm_weight", communities * WORD)
        self.vertex_weight = layout.alloc("vertex_weight", n * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: np.random.Generator
    ) -> Iterator[Op]:
        g = self.graph
        n = g.num_vertices
        chunk = n // threads
        start = tid * chunk
        emitted = 0
        i = 0
        while emitted < ops:
            v = start + (i % max(chunk, 1))
            i += 1
            yield self.row_ptr + v * WORD, RequestType.LOAD, WORD
            yield self.vertex_weight + v * WORD, RequestType.LOAD, WORD
            emitted += 2
            nbrs = g.neighbors_of(v)
            ptr = int(g.row_ptr[v])
            deg = len(nbrs)
            if deg:
                # Neighbour run is contiguous: SPM block prefetch.
                for op in self.spm_prefetch(self.neighbors, ptr * WORD, deg * WORD):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
            for w in nbrs:
                # Community-id gathers: 85 % of neighbours are inside v's
                # own community, a contiguous vertex range spanning only a
                # handful of rows — the clustered locality Louvain builds.
                yield self.comm_id + int(w) * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            # Candidate-community weight table is tiny (64 entries): hot rows.
            c = int(rng.integers(0, self.communities))
            yield self.comm_weight + c * WORD, RequestType.LOAD, WORD
            yield self.comm_id + v * WORD, RequestType.STORE, WORD
            emitted += 2
