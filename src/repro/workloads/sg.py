"""Scatter/Gather (SG) — the paper's running irregular microbenchmark.

The kernel of sections 2.1 and 5.2: ``A[i] = B[C[i]]`` — a sequential
index-stream read, a data-dependent random gather, and a sequential
store.  The two sequential streams carry high row locality (32
8-byte words per 256 B row); the gather is uniform-random over B and
essentially uncoalescable for large B, which is exactly the miss-rate
behaviour Fig. 1 (right) sweeps.

``SequentialSG`` is the ``A[i] = B[i]`` control used in the same figure.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .rng import RandomStream


class ScatterGather(Workload):
    """``A[i] = B[C[i]]`` with uniform-random C."""

    name = "SG"
    suite = "micro"
    # Tight gather loop: ~1 mem op per 2 instructions, nearly all of
    # which miss the SPM (the working set is the whole of B).
    profile = ExecutionProfile("SG", ipc=2.55, rpi=0.52, mem_access_rate=0.92)

    def __init__(
        self,
        scale: int = 1,
        seed: int = 2019,
        elements: int = 1 << 20,
        hot_frac: float = 0.58,
        block_elems: int = 32,
    ) -> None:
        super().__init__(scale, seed)
        self.elements = elements * scale
        #: Fraction of gather indices landing in a small hot region.
        #: hot_frac=0 gives the uniform-random gathers of Fig. 1 (right);
        #: the Fig. 10 evaluation configuration models hot/cold lookups.
        self.hot_frac = hot_frac
        #: Elements per SPM transfer block for the streaming arrays.
        self.block_elems = block_elems
        layout = MemoryLayout()
        self.a = layout.alloc("A", self.elements * WORD)
        self.b = layout.alloc("B", self.elements * WORD)
        self.c = layout.alloc("C", self.elements * 4)  # int32 indices
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        # Block-partitioned parallel loop: thread t owns a contiguous
        # chunk of the index space, as an OpenMP static schedule would.
        # The unit-stride C reads and A writes move through the SPM in
        # blocks; the data-dependent B gathers go out as raw words.
        chunk = self.elements // threads
        start = tid * chunk
        blk = self.block_elems
        emitted = 0
        j = 0
        while emitted < ops:
            i = start + (j * blk) % max(chunk - blk, 1)
            j += 1
            # Prefetch one block of int32 indices into the SPM.
            for op in self.spm_prefetch(self.c, i * 4, blk * 4):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            # Gather B[C[i]] for each index in the block.  Real lookup
            # tables are hot/cold: a fraction of indices (hot_frac) land in
            # a small frequently-referenced region, the rest are uniform.
            if self.hot_frac > 0:
                hot_rows = 8 * 32  # 8 rows' worth of words
                hot = rng.integers(0, hot_rows, size=blk)
                cold = rng.integers(0, self.elements, size=blk)
                hot_frac = self.hot_frac
                idx = [
                    h if u < hot_frac else c
                    for h, c, u in zip(hot, cold, rng.random(blk))
                ]
            else:
                idx = rng.integers(0, self.elements, size=blk)
            for k in range(blk):
                yield self.b + idx[k] * WORD, RequestType.LOAD, WORD
                emitted += 1
                if emitted >= ops:
                    return
            # Write the result block back from the SPM.
            for op in self.spm_writeback(self.a, i * WORD, blk * WORD):
                yield op
                emitted += 1
                if emitted >= ops:
                    return


class SequentialSG(Workload):
    """``A[i] = B[i]`` — the sequential control of Fig. 1 (right)."""

    name = "SG-SEQ"
    suite = "micro"
    profile = ExecutionProfile("SG-SEQ", ipc=4.05, rpi=0.50, mem_access_rate=0.85)

    def __init__(
        self, scale: int = 1, seed: int = 2019, elements: int = 1 << 20
    ) -> None:
        super().__init__(scale, seed)
        self.elements = elements * scale
        layout = MemoryLayout()
        self.a = layout.alloc("A", self.elements * WORD)
        self.b = layout.alloc("B", self.elements * WORD)
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        chunk = self.elements // threads
        start = tid * chunk
        blk = 32
        emitted = 0
        j = 0
        while emitted < ops:
            i = start + (j * blk) % max(chunk - blk, 1)
            j += 1
            for op in self.spm_prefetch(self.b, i * WORD, blk * WORD):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
            for op in self.spm_writeback(self.a, i * WORD, blk * WORD):
                yield op
                emitted += 1
                if emitted >= ops:
                    return
