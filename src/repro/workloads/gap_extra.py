"""Additional GAP kernels — CC, SSSP and TC.

Beyond BFS and PR (:mod:`repro.workloads.gap`), the GAP suite's other
kernels stress distinct mixes of streaming and gathering:

* **CC (connected components, Shiloach-Vishkin style)** — edge-list
  streaming with two random component-id lookups and an occasional
  hook (store) per edge;
* **SSSP (delta-stepping)** — bucketed frontier scans plus random
  distance relaxations;
* **TC (triangle counting)** — per vertex, stream its neighbour run and
  for each neighbour stream *that* vertex's run too, intersecting: very
  adjacency-bandwidth-heavy with hub-quadratic reuse.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .graphs import CSRGraph, rmat_csr, rmat_edges
from .rng import RandomStream


class GAPConnectedComponents(Workload):
    """Shiloach-Vishkin connected components (GAP `cc`)."""

    name = "CC"
    suite = "gap"
    profile = ExecutionProfile("CC", ipc=2.25, rpi=0.44, mem_access_rate=0.90)

    def __init__(self, scale: int = 1, seed: int = 2019, graph_scale: int = 14) -> None:
        super().__init__(scale, seed)
        self.edges = rmat_edges(graph_scale + (scale - 1), edge_factor=8, seed=seed)
        n = 1 << (graph_scale + (scale - 1))
        self.n = n
        layout = MemoryLayout()
        self.edge_array = layout.alloc("edges", len(self.edges) * 2 * WORD)
        self.comp = layout.alloc("comp", n * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        m = len(self.edges)
        chunk = m // threads
        start = tid * chunk
        emitted = 0
        e = 0
        while emitted < ops:
            i = start + (e % max(chunk, 1))
            e += 1
            # The edge list streams via SPM blocks (16 B = one (u,v) pair).
            for op in self.spm_prefetch(self.edge_array, i * 16, 16):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            u, v = self.edges[i % m]
            # Two random component lookups + a hook on ~30 % of edges.
            yield self.comp + int(u) * WORD, RequestType.LOAD, WORD
            yield self.comp + int(v) * WORD, RequestType.LOAD, WORD
            emitted += 2
            if emitted >= ops:
                return
            if rng.random() < 0.3:
                yield self.comp + int(min(u, v)) * WORD, RequestType.STORE, WORD
                emitted += 1


class GAPSSSP(Workload):
    """Delta-stepping single-source shortest paths (GAP `sssp`)."""

    name = "SSSP"
    suite = "gap"
    profile = ExecutionProfile("SSSP", ipc=2.10, rpi=0.43, mem_access_rate=0.90)

    def __init__(self, scale: int = 1, seed: int = 2019, graph_scale: int = 14) -> None:
        super().__init__(scale, seed)
        self.graph: CSRGraph = rmat_csr(graph_scale + (scale - 1), seed=seed)
        n = self.graph.num_vertices
        layout = MemoryLayout()
        self.row_ptr = layout.alloc("row_ptr", (n + 1) * WORD)
        self.neighbors = layout.alloc("neighbors", self.graph.num_edges * WORD)
        self.weights = layout.alloc("weights", self.graph.num_edges * WORD)
        self.dist = layout.alloc("dist", n * WORD)
        self.bucket = layout.alloc("bucket", n * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        g = self.graph
        n = g.num_vertices
        emitted = 0
        bpos = tid
        while emitted < ops:
            # Scan the current bucket (sequential shared queue).
            yield self.bucket + (bpos % n) * WORD, RequestType.LOAD, WORD
            emitted += 1
            bpos += threads
            v = rng.integers(0, n)
            ptr = int(g.row_ptr[v])
            deg = g.degree(v)
            if deg:
                # Adjacency + weights stream together.
                for op in self.spm_prefetch(self.neighbors, ptr * WORD, deg * WORD):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
                for op in self.spm_prefetch(self.weights, ptr * WORD, deg * WORD):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
            for w in g.neighbors_of(v):
                # Relaxation: random dist check, conditional update.
                yield self.dist + int(w) * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
                if rng.random() < 0.2:
                    yield self.dist + int(w) * WORD, RequestType.STORE, WORD
                    yield self.bucket + (bpos % n) * WORD, RequestType.STORE, WORD
                    emitted += 2
                    if emitted >= ops:
                        return


class GAPTriangleCounting(Workload):
    """Set-intersection triangle counting (GAP `tc`)."""

    name = "TC"
    suite = "gap"
    profile = ExecutionProfile("TC", ipc=2.70, rpi=0.47, mem_access_rate=0.85)

    def __init__(self, scale: int = 1, seed: int = 2019, graph_scale: int = 13) -> None:
        super().__init__(scale, seed)
        self.graph: CSRGraph = rmat_csr(graph_scale + (scale - 1), seed=seed)
        n = self.graph.num_vertices
        layout = MemoryLayout()
        self.row_ptr = layout.alloc("row_ptr", (n + 1) * WORD)
        self.neighbors = layout.alloc("neighbors", self.graph.num_edges * WORD)
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
            u = start + (i % max(chunk, 1))
            i += 1
            ptr_u = int(g.row_ptr[u])
            deg_u = g.degree(u)
            if not deg_u:
                continue
            yield self.row_ptr + u * WORD, RequestType.LOAD, WORD
            emitted += 1
            # Stream u's adjacency once...
            for op in self.spm_prefetch(self.neighbors, ptr_u * WORD, deg_u * WORD):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            # ... then each neighbour's run for the intersection.
            for w in g.neighbors_of(u)[:8]:  # truncated like GAP's ordering
                ptr_w = int(g.row_ptr[int(w)])
                deg_w = min(g.degree(int(w)), 16)
                if deg_w:
                    for op in self.spm_prefetch(
                        self.neighbors, ptr_w * WORD, deg_w * WORD
                    ):
                        yield op
                        emitted += 1
                        if emitted >= ops:
                            return
