"""Additional BOTS kernels — FIB and HEALTH.

* **FIB** — recursive Fibonacci: almost pure task-runtime traffic
  (descriptor allocation, deque pushes/pops, steals), the most
  cache/coalescer-hostile of the BOTS set;
* **HEALTH** — the Columbian health-care simulation: linked lists of
  patients migrating between hospital levels — classic pointer chasing
  with small per-node payloads.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.request import RequestType
from repro.trace.stats import ExecutionProfile

from .base import MemoryLayout, Op, WORD, Workload
from .rng import RandomStream


class BotsFib(Workload):
    """Task-recursive Fibonacci (BOTS `fib`)."""

    name = "FIB"
    suite = "bots"
    profile = ExecutionProfile("FIB", ipc=3.60, rpi=0.35, mem_access_rate=0.70)

    def __init__(self, scale: int = 1, seed: int = 2019) -> None:
        super().__init__(scale, seed)
        layout = MemoryLayout()
        self.heap_bytes = (1 << 20) * scale
        self.task_heap = layout.alloc("task_heap", self.heap_bytes)
        self.deques = [layout.alloc(f"deque{t}", 4096) for t in range(64)]
        self.layout = layout

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        heap_words = self.heap_bytes // WORD
        deque_base = self.deques[tid % len(self.deques)]
        top = 0
        emitted = 0
        while emitted < ops:
            # Allocate a task descriptor (bump allocator with reuse:
            # scattered over the heap as freed slots recycle).
            d = rng.integers(0, heap_words - 8)
            for k in range(4):  # 32 B descriptor
                yield self.task_heap + (d + k) * WORD, RequestType.STORE, WORD
                emitted += 1
                if emitted >= ops:
                    return
            # Push onto the own deque (hot, tiny).
            yield deque_base + (top % 512) * WORD, RequestType.STORE, WORD
            emitted += 1
            top += 1
            # Occasionally steal: probe a victim's deque head.
            if rng.random() < 0.15:
                victim = self.deques[rng.integers(0, len(self.deques))]
                yield victim, RequestType.ATOMIC, WORD
                emitted += 1
                if emitted >= ops:
                    return
            # Join: read the descriptor back.
            yield self.task_heap + d * WORD, RequestType.LOAD, WORD
            emitted += 1


class BotsHealth(Workload):
    """Multilevel health-care simulation (BOTS `health`)."""

    name = "HEALTH"
    suite = "bots"
    profile = ExecutionProfile("HEALTH", ipc=2.40, rpi=0.46, mem_access_rate=0.88)

    def __init__(
        self, scale: int = 1, seed: int = 2019, patients: int = 1 << 16
    ) -> None:
        super().__init__(scale, seed)
        self.patients = patients * scale
        layout = MemoryLayout()
        #: Patient records are 64 B nodes linked in arrival order but
        #: allocated over time -> scattered in the heap.
        self.records = layout.alloc("records", self.patients * 64)
        self.villages = layout.alloc("villages", 4096 * 64)
        self.layout = layout
        # One draw per patient (65 K at scale 1): numpy's vector draw.
        import numpy as np

        #: next-pointer targets: mostly random (heap churn).
        self._next = np.random.default_rng(seed).integers(
            0, self.patients, size=self.patients
        )

    def thread_stream(
        self, tid: int, threads: int, ops: int, rng: RandomStream
    ) -> Iterator[Op]:
        emitted = 0
        node = rng.integers(0, self.patients)
        while emitted < ops:
            # Visit the village header (hot shared row per subtree).
            village = (tid * 37 + node) % 4096
            yield self.villages + village * 64, RequestType.LOAD, WORD
            emitted += 1
            # Walk a few list nodes: load the record (2 words) + next ptr.
            for _ in range(6):
                base = self.records + node * 64
                yield base, RequestType.LOAD, WORD
                yield base + WORD, RequestType.LOAD, WORD
                emitted += 2
                if emitted >= ops:
                    return
                if rng.random() < 0.3:  # treat the patient: update record
                    yield base + 2 * WORD, RequestType.STORE, WORD
                    emitted += 1
                    if emitted >= ops:
                        return
                node = int(self._next[node])
