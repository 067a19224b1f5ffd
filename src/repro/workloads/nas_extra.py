"""Additional NAS kernels — CG and FT.

* **CG** — conjugate gradient on a random sparse matrix: the classic
  SpMV gather (random column pattern, unlike HPCG's stencil structure)
  plus streaming vector updates (AXPY/dot);
* **FT** — 3D FFT: unit-stride butterfly passes alternating with
  dimension transposes whose strides cross a row on every access.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .rng import RandomStream


class NASCG(Workload):
    """Conjugate gradient with a random-pattern sparse matrix (NAS `CG`)."""

    name = "CG"
    suite = "nas"
    profile = ExecutionProfile("CG", ipc=2.55, rpi=0.48, mem_access_rate=0.90)

    def __init__(
        self, scale: int = 1, seed: int = 2019, n: int = 1 << 14, nnz_per_row: int = 16
    ) -> None:
        super().__init__(scale, seed)
        self.n = n * scale
        self.nnz_per_row = nnz_per_row
        layout = MemoryLayout()
        nnz = self.n * nnz_per_row
        self.values = layout.alloc("values", nnz * WORD)
        self.colidx = layout.alloc("colidx", nnz * 4)
        self.x = layout.alloc("x", self.n * WORD)
        self.p = layout.alloc("p", self.n * WORD)
        self.q = layout.alloc("q", self.n * WORD)
        self.layout = layout
        # One draw per nonzero (262 K at scale 1): numpy's vector draw.
        import numpy as np

        # NAS CG's makea(): random column positions, no stencil structure.
        self._cols = np.random.default_rng(seed).integers(0, self.n, size=nnz)

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        chunk = self.n // threads
        start = tid * chunk
        emitted = 0
        row = 0
        phase_axpy = 0
        while emitted < ops:
            i = start + (row % max(chunk, 1))
            row += 1
            nz0 = i * self.nnz_per_row
            # SpMV row: stream values+colidx, gather p[col], store q[i].
            for op in self.spm_prefetch(self.values, nz0 * WORD, self.nnz_per_row * WORD):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            for op in self.spm_prefetch(self.colidx, nz0 * 4, self.nnz_per_row * 4):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            for j in range(self.nnz_per_row):
                col = int(self._cols[(nz0 + j) % len(self._cols)])
                yield self.p + col * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            yield self.q + i * WORD, RequestType.STORE, WORD
            emitted += 1
            # Every 8 rows, an AXPY block over x/p (streams).
            phase_axpy += 1
            if phase_axpy % 8 == 0:
                off = (i % max(chunk - 32, 1)) * WORD
                for op in self.spm_prefetch(self.x, off, 256):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
                for op in self.spm_writeback(self.x, off, 256):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return


class NASFT(Workload):
    """3D FFT with transpose phases (NAS `FT`)."""

    name = "FT"
    suite = "nas"
    profile = ExecutionProfile("FT", ipc=3.15, rpi=0.50, mem_access_rate=0.86)

    def __init__(self, scale: int = 1, seed: int = 2019, nx: int = 64) -> None:
        super().__init__(scale, seed)
        self.nx = nx * scale
        n = self.nx**3
        layout = MemoryLayout()
        self.u = layout.alloc("u", n * 16)  # complex doubles
        self.scratch = layout.alloc("scratch", n * 16)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        nx = self.nx
        nxy = nx * nx
        lines = max(nx // threads, 1)
        y0 = tid * lines
        emitted = 0
        y, z = y0, 0
        line_no = 0
        while emitted < ops:
            base = (z * nxy + y * nx) * 16
            if line_no % 3 != 2:
                # Butterfly pass along x: unit-stride complex line.
                for op in self.spm_prefetch(self.u, base, nx * 16):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
                for op in self.spm_writeback(self.u, base, nx * 16):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
            else:
                # Transpose gather: stride nxy elements -> new row each.
                for k in range(nx):
                    src = ((k * nxy + y * nx + z) % (nx**3)) * 16
                    yield self.u + src, RequestType.LOAD, 16
                    yield self.scratch + base + k * 16, RequestType.STORE, 16
                    emitted += 2
                    if emitted >= ops:
                        return
            line_no += 1
            y += 1
            if y >= min(y0 + lines, nx):
                y = y0
                z = (z + 1) % nx
