"""GAP Benchmark Suite kernels — BFS and PageRank.

The GAP suite (Beamer et al.) provides reference implementations of six
graph kernels; the two with the most distinct memory behaviours are
modelled here:

* **BFS** — top-down level-synchronous traversal: frontier queue
  (sequential), CSR offsets/neighbours (sequential bursts per vertex),
  random ``parent[]`` probes and updates.
* **PR (PageRank)** — pull-direction iteration: per vertex, stream the
  in-neighbour list and gather ``scores[u]/out_degree[u]`` at random
  vertex positions, then store the new score sequentially.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .graphs import CSRGraph, rmat_csr
from .rng import RandomStream


class GAPBFS(Workload):
    """Top-down BFS over an R-MAT graph (GAP `bfs`)."""

    name = "BFS"
    suite = "gap"
    profile = ExecutionProfile("BFS", ipc=2.10, rpi=0.42, mem_access_rate=0.89)

    def __init__(self, scale: int = 1, seed: int = 2019, graph_scale: int = 14) -> None:
        super().__init__(scale, seed)
        self.graph: CSRGraph = rmat_csr(graph_scale + (scale - 1), seed=seed)
        n = self.graph.num_vertices
        layout = MemoryLayout()
        self.row_ptr = layout.alloc("row_ptr", (n + 1) * WORD)
        self.neighbors = layout.alloc("neighbors", self.graph.num_edges * WORD)
        self.parent = layout.alloc("parent", n * WORD)
        self.frontier = layout.alloc("frontier", n * WORD)
        self.next_frontier = layout.alloc("next_frontier", n * WORD)
        self.layout = layout
        import numpy as np

        # Precompute a BFS-like vertex visit order: hubs first (as a real
        # BFS frontier would discover them early).
        degrees = np.diff(self.graph.row_ptr)
        self._visit_order = np.argsort(-degrees, kind="stable")

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        g = self.graph
        n = g.num_vertices
        emitted = 0
        pos = tid
        nf_ptr = tid  # per-thread next-frontier append cursor
        while emitted < ops:
            v = int(self._visit_order[pos % n])
            pos += threads
            yield self.frontier + (pos % n) * WORD, RequestType.LOAD, WORD
            yield self.row_ptr + v * WORD, RequestType.LOAD, WORD
            emitted += 2
            nbrs = g.neighbors_of(v)
            start = int(g.row_ptr[v])
            deg = len(nbrs)
            if deg:
                # Contiguous neighbour run: SPM block prefetch.
                for op in self.spm_prefetch(self.neighbors, start * WORD, deg * WORD):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
            for w in nbrs:
                yield self.parent + int(w) * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
                # ~1/4 of probed vertices are newly discovered: CAS parent
                # and append to the next frontier.
                if rng.random() < 0.25:
                    yield self.parent + int(w) * WORD, RequestType.STORE, WORD
                    yield self.next_frontier + (nf_ptr % n) * WORD, RequestType.STORE, WORD
                    nf_ptr += 1
                    emitted += 2
                    if emitted >= ops:
                        return


class GAPPageRank(Workload):
    """Pull-based PageRank over an R-MAT graph (GAP `pr`)."""

    name = "PR"
    suite = "gap"
    profile = ExecutionProfile("PR", ipc=2.40, rpi=0.45, mem_access_rate=0.91)

    def __init__(self, scale: int = 1, seed: int = 2019, graph_scale: int = 14) -> None:
        super().__init__(scale, seed)
        self.graph: CSRGraph = rmat_csr(graph_scale + (scale - 1), seed=seed)
        n = self.graph.num_vertices
        layout = MemoryLayout()
        self.row_ptr = layout.alloc("row_ptr", (n + 1) * WORD)
        self.neighbors = layout.alloc("neighbors", self.graph.num_edges * WORD)
        self.scores = layout.alloc("scores", n * WORD)
        self.out_degree = layout.alloc("out_degree", n * WORD)
        self.next_scores = layout.alloc("next_scores", n * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
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
            emitted += 1
            nbrs = g.neighbors_of(v)
            ptr = int(g.row_ptr[v])
            deg = len(nbrs)
            if deg:
                for op in self.spm_prefetch(self.neighbors, ptr * WORD, deg * WORD):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
            for u in nbrs:
                # The defining PR gather: a random score lookup per edge.
                # (out_degree[] is SPM-resident: GAP precomputes it once
                # and it is read-shared, so the SPM keeps it on chip.)
                yield self.scores + int(u) * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            yield self.next_scores + v * WORD, RequestType.STORE, WORD
            emitted += 1
