"""HPCG — High Performance Conjugate Gradient (sparse SpMV pattern).

HPCG's dominant kernel is a symmetric Gauss-Seidel / SpMV over a sparse
matrix with a 27-point 3D stencil structure: per matrix row, sequential
streams over the value and column-index arrays, a gather of ``x[col]``
for each of the 27 neighbours (clustered around the diagonal by the
stencil geometry, but spanning ±nx·ny elements in the outer planes),
and a sequential store of ``y[i]``.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .rng import RandomStream


class HPCG(Workload):
    """27-point-stencil SpMV: ``y[i] = sum_j A[i,j] * x[col[i,j]]``."""

    name = "HPCG"
    suite = "hpcg"
    profile = ExecutionProfile("HPCG", ipc=2.85, rpi=0.48, mem_access_rate=0.88)

    def __init__(self, scale: int = 1, seed: int = 2019, nx: int = 48) -> None:
        super().__init__(scale, seed)
        self.nx = nx * scale
        self.n = self.nx**3
        layout = MemoryLayout()
        nnz = self.n * 27
        self.values = layout.alloc("values", nnz * WORD)
        self.colidx = layout.alloc("colidx", nnz * WORD)
        self.x = layout.alloc("x", self.n * WORD)
        self.y = layout.alloc("y", self.n * WORD)
        self.layout = layout
        # Stencil neighbour offsets in row-index space.
        nxy = self.nx * self.nx
        self._offsets: List[int] = [
            dz * nxy + dy * self.nx + dx
            for dz in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
        ]

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        chunk = self.n // threads
        start = tid * chunk
        emitted = 0
        nnz_per_row = 27
        row = 0
        # HPCG's SYMGS uses multicoloured ordering for parallelism: rows
        # of one colour class are visited with a stride, so consecutive
        # iterations do not share stencil pencils.
        colors = 8
        rows_per_color = max(chunk // colors, 1)
        while emitted < ops:
            color = row // rows_per_color % colors
            i = start + (color + (row % rows_per_color) * colors) % max(chunk, 1)
            row += 1
            base_nz = i * nnz_per_row
            # The matrix row's values and column indices are unit-stride:
            # the SPM prefetches them as one block (27 x 8 B values plus
            # 27 x 4 B indices ~ 324 B).
            for op in self.spm_prefetch(self.values, base_nz * WORD, nnz_per_row * WORD):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            for op in self.spm_prefetch(self.colidx, base_nz * 4, nnz_per_row * 4):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            # x[col] gathers hop across the three stencil planes and stay
            # word-granularity (data-dependent on colidx).  A third of the
            # stencil legs cross the local subdomain boundary, where the
            # halo exchange scatters them across the receive buffer.
            for k, off in enumerate(self._offsets):
                col = i + off
                if col < 0 or col >= self.n:
                    continue
                if k % 3 == 1:
                    col = rng.integers(0, self.n)
                yield self.x + col * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            yield self.y + i * WORD, RequestType.STORE, WORD
            emitted += 1
