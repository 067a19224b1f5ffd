"""NAS Parallel Benchmarks — MG, SP and IS access-pattern models.

* **MG** — multigrid V-cycle on a 3D grid: 27-point relaxation sweeps
  with unit-stride inner loops (high row locality) plus coarse-grid
  restriction/prolongation at power-of-two strides.
* **SP** — scalar pentadiagonal solver: forward/backward line sweeps in
  the three grid dimensions; the x-sweeps are unit-stride, the y/z
  sweeps stride by a plane, but each sweep touches five adjacent lines
  so neighbouring accesses still cluster in rows.
* **IS** — integer bucket sort: sequential key stream with random
  histogram increments (load+store pairs on the same bucket word) —
  the classic low-coalescibility histogram pattern.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .rng import RandomStream


class NASMG(Workload):
    """Multigrid relaxation sweeps (NAS `MG`)."""

    name = "MG"
    suite = "nas"
    profile = ExecutionProfile("MG", ipc=3.75, rpi=0.49, mem_access_rate=0.84)

    def __init__(self, scale: int = 1, seed: int = 2019, nx: int = 64) -> None:
        super().__init__(scale, seed)
        self.nx = nx * scale
        n = self.nx**3
        layout = MemoryLayout()
        self.u = layout.alloc("u", n * WORD)
        self.r = layout.alloc("r", n * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        nx = self.nx
        nxy = nx * nx
        n = nx**3
        # Threads partition outer planes, as the OpenMP loops do.  The
        # relaxation is pencil-tiled through the SPM: for each x-line the
        # SPM prefetches the centre line, its 4 neighbouring lines and the
        # residual line as block transfers, computes locally, and writes
        # the centre line back — one active row per transfer at a time.
        planes = max(nx // threads, 1)
        z0 = tid * planes
        emitted = 0
        z, y = max(z0, 1), 1
        line_bytes = nx * WORD
        line_no = 0
        while emitted < ops:
            # The V-cycle spends roughly a third of its memory traffic on
            # coarse levels and inter-level transfers, whose z-direction
            # strides cross a row on every access.
            coarse = line_no % 3 == 2
            line_no += 1
            stride = 8 if coarse else 1
            i = (z * nxy + y * nx) * WORD
            pencil_offsets = (0, nx * WORD, -nx * WORD, nxy * WORD, -nxy * WORD)
            for off in pencil_offsets:
                lo = i + off
                if 0 <= lo < n * WORD - line_bytes:
                    if not coarse:
                        for op in self.spm_prefetch(self.u, lo, line_bytes):
                            yield op
                            emitted += 1
                            if emitted >= ops:
                                return
                    else:
                        # Coarse-level sweep: strided word loads — each
                        # lands rows apart, the V-cycle's irregular tail.
                        for k in range(0, nx, 4):
                            j = lo + k * stride * WORD
                            yield self.u + j % (n * WORD), RequestType.LOAD, WORD
                            emitted += 1
                            if emitted >= ops:
                                return
            if not coarse:
                for op in self.spm_prefetch(self.r, i, line_bytes):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
                for op in self.spm_writeback(self.u, i, line_bytes):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
            else:
                for k in range(0, nx, 4):
                    j = (i + k * stride * WORD) % (n * WORD)
                    yield self.r + j, RequestType.LOAD, WORD
                    yield self.u + j, RequestType.STORE, WORD
                    emitted += 2
                    if emitted >= ops:
                        return
            y += 1
            if y >= nx - 1:
                y = 1
                z += 1
                if z >= min(z0 + planes, nx - 1):
                    z = max(z0, 1)


class NASSP(Workload):
    """Scalar pentadiagonal line solver (NAS `SP`)."""

    name = "SP"
    suite = "nas"
    profile = ExecutionProfile("SP", ipc=3.45, rpi=0.51, mem_access_rate=0.83)

    def __init__(self, scale: int = 1, seed: int = 2019, nx: int = 64) -> None:
        super().__init__(scale, seed)
        self.nx = nx * scale
        n = self.nx**3
        layout = MemoryLayout()
        self.rhs = layout.alloc("rhs", n * WORD)
        self.lhs = layout.alloc("lhs", n * 5 * WORD)  # pentadiagonal coefficients
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
        line_bytes = nx * WORD
        line_no = 0
        # ADI line pattern: x-sweeps dominate the traffic; one line in
        # three runs in the y or z direction (plane-strided accesses).
        sweep_cycle = (0, 0, 1, 0, 0, 2)
        while emitted < ops:
            sweep = sweep_cycle[line_no % len(sweep_cycle)]
            line_no += 1
            line_base = z * nxy + y * nx
            if sweep == 0:
                # x-direction Thomas sweep, SPM-pencil-tiled: the five
                # coefficient planes and the rhs line move as blocks.
                for c in range(5):
                    off = (line_base * 5 + c * nx) * WORD
                    for op in self.spm_prefetch(self.lhs, off, line_bytes):
                        yield op
                        emitted += 1
                        if emitted >= ops:
                            return
                for op in self.spm_prefetch(self.rhs, line_base * WORD, line_bytes):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
                for op in self.spm_writeback(self.rhs, line_base * WORD, line_bytes):
                    yield op
                    emitted += 1
                    if emitted >= ops:
                        return
            else:
                # y/z sweeps walk across lines: each point is a plane
                # apart, so these accesses land on a new row every time —
                # the solver's irregular share.
                stride = nx if sweep == 1 else nxy
                for k in range(nx):
                    i = line_base + k * stride
                    i %= nx**3
                    yield self.rhs + i * WORD, RequestType.LOAD, WORD
                    yield self.rhs + i * WORD, RequestType.STORE, WORD
                    emitted += 2
                    if emitted >= ops:
                        return
            y += 1
            if y >= min(y0 + lines, nx):
                y = y0
                z = (z + 1) % nx


class NASIS(Workload):
    """Integer bucket sort (NAS `IS`)."""

    name = "IS"
    suite = "nas"
    profile = ExecutionProfile("IS", ipc=2.85, rpi=0.54, mem_access_rate=0.93)

    def __init__(
        self, scale: int = 1, seed: int = 2019, keys: int = 1 << 20, buckets: int = 1 << 16
    ) -> None:
        super().__init__(scale, seed)
        self.keys = keys * scale
        self.buckets = buckets
        layout = MemoryLayout()
        self.key_array = layout.alloc("keys", self.keys * WORD)
        self.histogram = layout.alloc("histogram", self.buckets * WORD)
        self.rank = layout.alloc("rank", self.keys * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        chunk = self.keys // threads
        start = tid * chunk
        emitted = 0
        j = 0
        # IS keys are uniform random over the bucket range.
        bucket_idx = rng.integers(0, self.buckets, size=max(ops // 3 + 1, 1))
        while emitted < ops:
            i = start + (j % max(chunk, 1))
            # Sequential key read...
            yield self.key_array + i * WORD, RequestType.LOAD, WORD
            # ... random histogram increment: load + store the bucket.
            b = bucket_idx[j % len(bucket_idx)]
            yield self.histogram + b * WORD, RequestType.LOAD, WORD
            yield self.histogram + b * WORD, RequestType.STORE, WORD
            emitted += 3
            j += 1
