"""SSCA#2 — Scalable Synthetic Compact Applications graph analysis.

Kernel 4 of SSCA#2 (betweenness-centrality style traversal) dominates the
benchmark's memory behaviour: a level-synchronous BFS over an R-MAT
graph (frontier queue reads, CSR neighbour streams, random visited /
distance / sigma updates) followed by the dependency back-propagation
which re-walks the same structure with random delta[] updates.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .graphs import CSRGraph, rmat_csr
from .rng import RandomStream


class SSCA2(Workload):
    """Betweenness-style R-MAT traversal (SSCA#2 kernel 4)."""

    name = "SSCA2"
    suite = "graph"
    profile = ExecutionProfile("SSCA2", ipc=2.25, rpi=0.46, mem_access_rate=0.90)

    def __init__(self, scale: int = 1, seed: int = 2019, graph_scale: int = 14) -> None:
        super().__init__(scale, seed)
        self.graph: CSRGraph = rmat_csr(graph_scale + (scale - 1), seed=seed)
        n = self.graph.num_vertices
        layout = MemoryLayout()
        self.row_ptr = layout.alloc("row_ptr", (n + 1) * WORD)
        self.neighbors = layout.alloc("neighbors", self.graph.num_edges * WORD)
        self.dist = layout.alloc("dist", n * WORD)
        self.sigma = layout.alloc("sigma", n * WORD)
        self.delta = layout.alloc("delta", n * WORD)
        self.frontier = layout.alloc("frontier", n * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        g = self.graph
        n = g.num_vertices
        emitted = 0
        fpos = tid  # frontier scan position (threads stride the queue)
        while emitted < ops:
            # Pop a vertex from the shared frontier (sequential queue read).
            yield self.frontier + (fpos % n) * WORD, RequestType.LOAD, WORD
            emitted += 1
            # Edge-centric vertex selection: traversal reaches vertices in
            # proportion to their in-degree, so R-MAT hubs (with their long
            # contiguous adjacency runs) dominate the stream.
            e = rng.integers(0, g.num_edges)
            v = int(g.neighbors[e])
            # CSR bounds: two adjacent row_ptr words.
            yield self.row_ptr + v * WORD, RequestType.LOAD, WORD
            emitted += 1
            nbrs = g.neighbors_of(v)
            start = int(g.row_ptr[v])
            deg = len(nbrs)
            if deg:
                # The contiguous neighbour run is SPM-prefetched as a block.
                for op in self.spm_prefetch(self.neighbors, start * WORD, deg * WORD):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
            for w in nbrs:
                # Random checks on the visited structures; R-MAT hubs
                # concentrate a fraction of these on hot rows.  sigma is
                # only updated for tree edges (~1/4 of probes).
                yield self.dist + int(w) * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
                if rng.random() < 0.25:
                    yield self.sigma + int(w) * WORD, RequestType.STORE, WORD
                    emitted += 1
                    if emitted >= ops:
                        return
            # Back-propagation touch on delta[v].
            yield self.delta + v * WORD, RequestType.STORE, WORD
            emitted += 1
            fpos += threads
