"""DDR4 channel device — the conventional-interface comparison point.

Wraps the FR-FCFS controller and open-page banks into the same
submit-style interface as :class:`repro.hmc.device.HMCDevice`, with the
JEDEC constraints of section 2.2: fixed 64 B access granularity (BL8 on
a 64-bit bus) and 8 KB rows.  Requests of other sizes are split/rounded
to 64 B lines, modelling the cache-line quantization of a conventional
memory path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.packet import CoalescedRequest
from repro.obs.protocol import StatsMixin

from .controller import FRFCFSController, QueuedRequest
from .timing import DDRTiming


@dataclass(frozen=True, slots=True)
class DDRConfig:
    """One DDR4 channel (section 2.2's conventional device)."""

    line_bytes: int = 64  # BL8 x 64-bit bus
    row_bytes: int = 8 << 10  # 8 KB rows (vs HMC's 256 B)
    banks: int = 16
    queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.row_bytes % self.line_bytes:
            raise ValueError("rows must hold whole lines")

    @property
    def line_shift(self) -> int:
        return self.line_bytes.bit_length() - 1

    def bank_of(self, addr: int) -> int:
        # Line-interleaved banks (standard XOR-free DDR mapping, with
        # the row bits folded to avoid row-stride aliasing).
        line = addr >> self.line_shift
        lines_per_row = self.row_bytes // self.line_bytes
        folded = line ^ (line // lines_per_row)
        return folded % self.banks

    def row_of(self, addr: int) -> int:
        return addr // self.row_bytes


@dataclass
class DDRStats(StatsMixin):
    SNAPSHOT_DERIVED = ("mean_latency", "makespan")

    requests: int = 0
    line_accesses: int = 0
    total_latency: int = 0
    last_completion: int = 0
    first_arrival: int = -1

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.line_accesses if self.line_accesses else 0.0

    @property
    def makespan(self) -> int:
        if self.first_arrival < 0:
            return 0
        return self.last_completion - self.first_arrival


class DDRDevice:
    """One DDR4 channel behind an FR-FCFS controller."""

    def __init__(
        self, config: Optional[DDRConfig] = None, timing: Optional[DDRTiming] = None
    ) -> None:
        self.config = config or DDRConfig()
        self.timing = timing or DDRTiming()
        self.controller = FRFCFSController(
            banks=self.config.banks,
            timing=self.timing,
            queue_depth=self.config.queue_depth,
        )
        self.stats = DDRStats()
        self._tag = 0

    def submit(self, request: CoalescedRequest, arrival: int) -> None:
        """Queue a request, quantized to 64 B line accesses."""
        cfg = self.config
        first = request.addr >> cfg.line_shift
        last = (request.addr + request.size - 1) >> cfg.line_shift
        self.stats.requests += 1
        if self.stats.first_arrival < 0 or arrival < self.stats.first_arrival:
            self.stats.first_arrival = arrival
        for line in range(first, last + 1):
            addr = line << cfg.line_shift
            self._tag += 1
            while not self.controller.enqueue(
                arrival, cfg.bank_of(addr), cfg.row_of(addr), self._tag
            ):
                # Queue full: serve one to free a slot (lock-step model).
                self._complete(self.controller.service_one(arrival))

    def run(self) -> None:
        """Drain the controller queue."""
        for req in self.controller.drain():
            self._complete(req)

    def _complete(self, req: Optional[QueuedRequest]) -> None:
        if req is None:
            return
        self.stats.line_accesses += 1
        self.stats.total_latency += req.complete_cycle - req.arrival
        self.stats.last_completion = max(self.stats.last_completion, req.complete_cycle)

    # -- aggregates -----------------------------------------------------------

    @property
    def row_hit_rate(self) -> float:
        return self.controller.row_hit_rate

    @property
    def bank_conflicts(self) -> int:
        return self.controller.bank_conflicts

    def unloaded_read_latency(self) -> int:
        """One isolated row-miss read through the channel."""
        return self.timing.row_miss_latency + self.timing.io_latency
