"""Barcelona OpenMP Tasks Suite (BOTS) — NQUEENS, SPARSELU, SORT.

BOTS benchmarks are task-parallel; their memory behaviour is dominated
by the data each task touches:

* **NQUEENS** — backtracking search; each task works on a small board
  copy and a handful of column/diagonal occupancy arrays.  The working
  set per thread is a few hundred bytes re-touched constantly: extreme
  row locality (the paper's Fig. 12 shows NQUEENS among the largest
  bank-conflict reductions precisely because raw traffic hammers the
  same rows).
* **SPARSELU** — LU factorisation of a sparse blocked matrix; tasks
  operate on dense 32x32 FP64 tiles (8 KB), streaming them with unit
  stride: very high coalescibility (>60 % in Fig. 10).
* **SORT** — parallel mergesort; sequential merge streams with task
  recursion, moderate-to-high locality.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .rng import RandomStream


class NQueens(Workload):
    """Task-recursive N-queens backtracking (BOTS `nqueens`)."""

    name = "NQUEENS"
    suite = "bots"
    profile = ExecutionProfile("NQUEENS", ipc=3.30, rpi=0.38, mem_access_rate=0.74)

    def __init__(self, scale: int = 1, seed: int = 2019, board: int = 14) -> None:
        super().__init__(scale, seed)
        self.board = board
        layout = MemoryLayout()
        # Each thread owns a task stack of board states; states are small
        # and contiguous, so per-thread traffic concentrates in few rows.
        self.stack_bytes = 4096 * scale
        self.stacks = [
            layout.alloc(f"stack{t}", self.stack_bytes) for t in range(64)
        ]
        self.results = layout.alloc("results", 64 * WORD)
        # Task-descriptor heap touched by the OpenMP runtime: descriptors
        # are allocated/stolen all over it, so those accesses scatter.
        self.task_heap = layout.alloc("task_heap", 1 << 20)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        stack = self.stacks[tid % len(self.stacks)]
        words = self.stack_bytes // WORD
        heap_words = (1 << 20) // WORD
        depth = 0
        emitted = 0
        while emitted < ops:
            # Spawn: allocate a task descriptor somewhere in the runtime
            # heap (scattered) and link it into the stealing deque.
            t_desc = rng.integers(0, heap_words - 4)
            yield self.task_heap + t_desc * WORD, RequestType.STORE, WORD
            yield self.task_heap + (t_desc + 1) * WORD, RequestType.STORE, WORD
            emitted += 2
            if emitted >= ops:
                return
            # Work-stealing deque probes scan other threads' deques.
            for _ in range(12):
                p_ = rng.integers(0, heap_words)
                yield self.task_heap + p_ * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            # Push a board copy: sequential stores of `board` words.
            base = (depth * self.board) % (words - self.board)
            for i in range(self.board):
                yield stack + (base + i) * WORD, RequestType.STORE, WORD
                emitted += 1
                if emitted >= ops:
                    return
            # Probe occupancy: sequential loads over the same rows.
            for i in range(self.board):
                yield stack + (base + i) * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            # Task retirement touches its descriptor again.
            yield self.task_heap + t_desc * WORD, RequestType.LOAD, WORD
            emitted += 1
            if rng.random() < 0.5 and depth < 12:
                depth += 1
            elif depth > 0:
                depth -= 1
            else:
                # Completed a subtree: bump the shared result counter.
                yield self.results + (tid % 64) * WORD, RequestType.STORE, WORD
                emitted += 1


class SparseLU(Workload):
    """Blocked sparse LU factorisation (BOTS `sparselu`)."""

    name = "SPARSELU"
    suite = "bots"
    profile = ExecutionProfile("SPARSELU", ipc=3.60, rpi=0.47, mem_access_rate=0.82)

    def __init__(
        self, scale: int = 1, seed: int = 2019, blocks: int = 16, block_dim: int = 32
    ) -> None:
        super().__init__(scale, seed)
        self.blocks = blocks * scale
        self.block_dim = block_dim
        self.block_words = block_dim * block_dim
        layout = MemoryLayout()
        nblocks = self.blocks * self.blocks
        self.matrix = layout.alloc("matrix", nblocks * self.block_words * WORD)
        self.layout = layout
        # ~40 % of blocks are non-empty (sparse block structure).
        self.present = [u < 0.4 for u in RandomStream(seed).random(nblocks)]

    def _block_base(self, bi: int, bj: int) -> int:
        idx = bi * self.blocks + bj
        return self.matrix + idx * self.block_words * WORD

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        emitted = 0
        k = 0
        nblocks = self.blocks * self.blocks
        while emitted < ops:
            # bmod task: A[i][j] -= L[i][k] * U[k][j] over dense tiles.
            bi = rng.integers(0, self.blocks)
            bj = (tid + k) % self.blocks
            k += 1
            # Sparse block-header probes: pointer chasing across the block
            # matrix (headers sit 8 KB apart, one row each).
            for probe in range(7):
                p = rng.integers(0, nblocks)
                yield self.matrix + p * self.block_words * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            if not self.present[bi * self.blocks + bj]:
                continue
            l_base = self._block_base(bi, k % self.blocks)
            u_base = self._block_base(k % self.blocks, bj)
            a_base = self._block_base(bi, bj)
            # SPM-prefetch one tile row from L and U, write back to A:
            # three unit-stride 256 B block transfers per task step.
            row = rng.integers(0, self.block_dim)
            off = row * self.block_dim * WORD
            nbytes = self.block_dim * WORD
            for op in self.spm_prefetch(l_base, off, nbytes):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            for op in self.spm_prefetch(u_base, off, nbytes):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            for op in self.spm_writeback(a_base, off, nbytes):
                yield op
                emitted += 1
                if emitted >= ops:
                    return


class BotsSort(Workload):
    """Parallel mergesort (BOTS `sort`)."""

    name = "SORT"
    suite = "bots"
    profile = ExecutionProfile("SORT", ipc=3.15, rpi=0.50, mem_access_rate=0.80)

    def __init__(self, scale: int = 1, seed: int = 2019, elements: int = 1 << 18) -> None:
        super().__init__(scale, seed)
        self.elements = elements * scale
        layout = MemoryLayout()
        self.src = layout.alloc("src", self.elements * WORD)
        self.tmp = layout.alloc("tmp", self.elements * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        chunk = self.elements // threads
        lo = tid * chunk
        heap_words = (1 << 20) // WORD
        emitted = 0
        a, b, out = 0, chunk // 2, 0
        while emitted < ops:
            # Task spawn/retire bookkeeping in the scattered runtime heap,
            # plus the binary-search splitter probes of pmerge.
            for _ in range(12):
                p = rng.integers(0, heap_words)
                yield self.tmp + p * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            # Merge step: two sequential read streams + one write stream,
            # consuming and producing one SPM block per stream per round.
            for op in self.spm_prefetch(self.src, (lo + a % max(chunk, 1)) * WORD, 128):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            for op in self.spm_prefetch(self.src, (lo + b % max(chunk, 1)) * WORD, 128):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            for op in self.spm_writeback(self.tmp, (lo + out % max(chunk, 1)) * WORD, 256):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            a += 16
            b += 16
            out += 32
