"""Shared graph substrate for the graph-analytics workloads.

SSCA2, Grappolo and the GAP kernels all traverse compressed-sparse-row
(CSR) graphs.  This module builds deterministic R-MAT (power-law) graphs
as CSR arrays — real adjacency structure, so the
generators below issue the genuine gather/scatter address streams of
graph analytics rather than unstructured noise.

Several workloads traverse the same graph (SSCA2, BFS and PR all walk
``rmat_csr(14, seed=2019)``), so the CSR builders are memoized per
process with :func:`graph_memo`.  Memoized graphs are shared, so their
arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, List

import numpy as np

from repro.seeding import DEFAULT_SEED


@dataclass(frozen=True)
class CSRGraph:
    """CSR adjacency: ``neighbors[row_ptr[v]:row_ptr[v+1]]`` for vertex v."""

    row_ptr: np.ndarray
    neighbors: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.row_ptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.neighbors)

    def degree(self, v: int) -> int:
        return int(self.row_ptr[v + 1] - self.row_ptr[v])

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.row_ptr[v] : self.row_ptr[v + 1]]


#: Distinct graphs each memoized builder keeps warm per process.  The
#: paper suite needs one per builder; the rest cover seed and scale sweeps.
GRAPH_MEMO_SIZE = 4

_GRAPH_MEMOS: List[Callable[..., CSRGraph]] = []


def graph_memo(builder: Callable[..., CSRGraph]) -> Callable[..., CSRGraph]:
    """Build each distinct graph once per process, with read-only arrays.

    Keyed by the call's arguments (bounded LRU of ``GRAPH_MEMO_SIZE``).
    Forked sweep workers inherit the warm memo.  Every caller shares the
    returned graph, so a write to ``row_ptr`` or ``neighbors`` raises
    instead of corrupting another workload.
    """

    @lru_cache(maxsize=GRAPH_MEMO_SIZE)
    @wraps(builder)
    def build(*args, **kwargs) -> CSRGraph:
        graph = builder(*args, **kwargs)
        graph.row_ptr.flags.writeable = False
        graph.neighbors.flags.writeable = False
        return graph

    _GRAPH_MEMOS.append(build)
    return build


def clear_graph_memo() -> None:
    """Drop every memoized graph (see ``repro.eval.clear_trace_cache``)."""
    for memo in _GRAPH_MEMOS:
        memo.cache_clear()


def _check_rmat_size(scale: int, edge_factor: int) -> None:
    if scale < 0:
        raise ValueError(f"rmat: scale must be >= 0, got {scale}")
    if edge_factor < 1:
        raise ValueError(f"rmat: edge_factor must be >= 1, got {edge_factor}")


def rmat_edges(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Kronecker (R-MAT) edge list with the Graph500/SSCA2 parameters.

    Returns an (m, 2) int64 array of directed edges over 2**scale
    vertices.  Power-law degree structure is what concentrates graph
    traffic on hub rows — the locality the MAC exploits.  The quadrant
    probabilities must be non-negative with ``a + b < 1`` and
    ``a + b + c <= 1`` (``d`` is the remainder); ``ValueError`` otherwise.
    """
    _check_rmat_size(scale, edge_factor)
    for name, p in (("a", a), ("b", b), ("c", c)):
        if p < 0:
            raise ValueError(f"rmat: quadrant probability {name} must be >= 0, got {p}")
    if a + b >= 1:
        raise ValueError(f"rmat: a + b must be < 1, got a={a}, b={b}")
    if a + b + c > 1:
        raise ValueError(f"rmat: a + b + c must be <= 1, got a={a}, b={b}, c={c}")
    n = 1 << scale
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    ab = a + b
    for bit in range(scale):
        r = rng.random(m)
        r2 = rng.random(m)
        # Within top half: bit of src set for quadrants b? Standard RMAT:
        # a=00, b=01, c=10, d=11 over (src_bit, dst_bit).
        src_bit = (r >= ab).astype(np.int64)
        dst_bit = np.where(
            src_bit == 0, (r >= a).astype(np.int64), (r2 >= c / (1 - ab)).astype(np.int64)
        )
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    edges = np.stack([src, dst], axis=1)
    # Permute vertex labels to avoid degree-locality artifacts of the
    # Kronecker construction (Graph500 does the same).
    perm = rng.permutation(n)
    return perm[edges]


def edges_to_csr(edges: np.ndarray, n: int) -> CSRGraph:
    """Build a CSR adjacency from a directed edge list (self-loops kept)."""
    src = edges[:, 0]
    dst = edges[:, 1]
    order = np.argsort(src, kind="stable")
    sorted_dst = dst[order].astype(np.int64)
    counts = np.bincount(src, minlength=n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CSRGraph(row_ptr=row_ptr, neighbors=sorted_dst)


def rmat_csr(scale: int, edge_factor: int = 16, seed: int = DEFAULT_SEED) -> CSRGraph:
    """R-MAT graph in CSR form (2**scale vertices), memoized per process.

    Arguments are checked before the memo, so a bad call never reaches
    it.  The returned graph is shared and read-only.
    """
    _check_rmat_size(scale, edge_factor)
    return _rmat_csr(scale, edge_factor, seed)


@graph_memo
def _rmat_csr(scale: int, edge_factor: int, seed: int) -> CSRGraph:
    return edges_to_csr(rmat_edges(scale, edge_factor, seed=seed), 1 << scale)
