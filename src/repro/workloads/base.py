"""Workload framework — synthetic generators for the paper's benchmarks.

The paper traces 12 parallel benchmarks on a modified RISC-V Spike
(section 5.2).  We cannot run Spike, so each benchmark is replaced by a
seeded generator that reproduces its *memory access pattern* — the only
property the MAC, the cache study and the HMC model observe (DESIGN.md
section 4, substitution 1).

A workload describes:

* an :class:`repro.trace.stats.ExecutionProfile` (IPC, RPI, SPM-miss
  rate) used by Eq. 2 / Fig. 9 and for cycle-stamping traces;
* per-thread operation streams (:meth:`Workload.thread_stream`) over a
  declared :class:`MemoryLayout` of arrays;
* :meth:`Workload.generate`, which interleaves the thread streams
  round-robin (the arrival order a multicore front-end produces) and
  stamps cycles at the profile's offered request rate.
"""

from __future__ import annotations

import abc
from itertools import zip_longest
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.request import RequestType
from repro.seeding import DEFAULT_SEED
from repro.trace.record import TraceRecord
from repro.trace.stats import ExecutionProfile

#: (address, op, size) tuples produced by per-thread streams.
Op = Tuple[int, RequestType, int]

#: Rows are 256 B; arrays are row-aligned so address arithmetic in the
#: generators maps directly onto coalescing units.
ROW_BYTES = 256
WORD = 8


class MemoryLayout:
    """Row-aligned allocator for named arrays in the 52-bit address space.

    Regions are spaced by at least one row so accesses to different
    arrays never share a coalescing unit by accident.
    """

    def __init__(self, base: int = 1 << 32) -> None:
        self._next = _round_up(base, ROW_BYTES)
        self.regions: Dict[str, Tuple[int, int]] = {}

    def alloc(self, name: str, nbytes: int) -> int:
        """Reserve ``nbytes`` for ``name``; returns the base address."""
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        if nbytes < 1:
            raise ValueError("allocation must be positive")
        base = self._next
        self.regions[name] = (base, nbytes)
        self._next = _round_up(base + nbytes, ROW_BYTES) + ROW_BYTES
        if self._next >= (1 << 52):
            raise MemoryError("52-bit simulated address space exhausted")
        return base

    def base(self, name: str) -> int:
        return self.regions[name][0]

    def contains(self, name: str, addr: int) -> bool:
        base, size = self.regions[name]
        return base <= addr < base + size


def _round_up(x: int, align: int) -> int:
    return (x + align - 1) // align * align


class Workload(abc.ABC):
    """One synthetic benchmark.

    Subclasses set ``name``, ``suite`` and ``profile`` and implement
    :meth:`thread_stream`.
    """

    name: str = "abstract"
    suite: str = ""
    #: Eq. 2 inputs; values per benchmark are documented in registry.py.
    profile: ExecutionProfile

    def __init__(self, scale: int = 1, seed: int = DEFAULT_SEED) -> None:
        """``scale`` multiplies the working-set size; ``seed`` fixes RNG."""
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.scale = scale
        self.seed = seed

    # -- to implement ----------------------------------------------------------

    @abc.abstractmethod
    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: np.random.Generator
    ) -> Iterator[Op]:
        """Yield up to ``ops`` operations for thread ``tid`` of ``threads``."""

    # -- shared machinery ----------------------------------------------------

    def generate(
        self,
        threads: int = 8,
        ops_per_thread: int = 4096,
        seed: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Produce the interleaved, cycle-stamped trace.

        Threads are interleaved round-robin, one operation per turn —
        the arrival pattern of symmetric cores issuing in lockstep; the
        cycle stamps spread the aggregate stream at the profile's
        offered rate (Eq. 2) so trace timing matches Fig. 9.
        """
        if threads < 1:
            raise ValueError("need at least one thread")
        if ops_per_thread < 1:
            raise ValueError("need at least one op per thread")
        base_seed = self.seed if seed is None else seed
        ops = [
            list(
                self.thread_stream(
                    tid,
                    threads,
                    ops_per_thread,
                    np.random.default_rng((base_seed, tid)),
                )
            )
            for tid in range(threads)
        ]
        rpc = max(self.profile.rpc(cores=threads), 1e-6)
        out: List[TraceRecord] = []
        append = out.append
        k = 0
        # Round r takes the r-th op of every thread that still has one.
        for round_ops in zip_longest(*ops):
            for tid, op in enumerate(round_ops):
                if op is not None:
                    addr, rtype, size = op
                    append(TraceRecord(rtype, addr, size, tid, tid % 8, int(k / rpc)))
                    k += 1
        return out

    # -- helpers for subclasses ----------------------------------------------

    @staticmethod
    def seq_loads(base: int, start: int, count: int, stride: int = WORD) -> Iterator[Op]:
        """Unit/strided sequential load run over an array."""
        for i in range(count):
            yield base + (start + i) * stride, RequestType.LOAD, WORD

    # The paper's node has software-managed SPMs with ISA extensions for
    # prefetch and write-back (section 5.1).  Streamable data therefore
    # reaches the MAC as contiguous FLIT-granularity block transfers; only
    # data-dependent gathers/scatters arrive as individual word accesses.

    @staticmethod
    def spm_prefetch(base: int, byte_off: int, nbytes: int) -> Iterator[Op]:
        """SPM block fetch: FLIT-sized loads over a contiguous range."""
        flit = 16
        start = byte_off - (byte_off % flit)
        end = byte_off + nbytes
        while start < end:
            yield base + start, RequestType.LOAD, flit
            start += flit

    @staticmethod
    def spm_writeback(base: int, byte_off: int, nbytes: int) -> Iterator[Op]:
        """SPM block write-back: FLIT-sized stores over a contiguous range."""
        flit = 16
        start = byte_off - (byte_off % flit)
        end = byte_off + nbytes
        while start < end:
            yield base + start, RequestType.STORE, flit
            start += flit

    @staticmethod
    def zipf_indices(
        rng: np.random.Generator, n: int, count: int, s: float = 1.1
    ) -> np.ndarray:
        """Zipf-popular gather indices over ``n`` elements.

        Real lookup tables (graph hubs, symbol tables, histogram heads)
        exhibit power-law popularity; ``s`` controls the skew.
        """
        ranks = rng.zipf(s + 1.0, size=count)
        return np.minimum(ranks - 1, n - 1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scale={self.scale}, seed={self.seed})"

