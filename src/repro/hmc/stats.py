"""Device-level statistics of the HMC model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..obs.metrics import Histogram
from ..obs.protocol import StatsMixin


@dataclass(slots=True)
class HMCStats(StatsMixin):
    """Aggregate counters of one simulated device.

    ``bank_conflicts`` feeds Fig. 12; latency sums feed Fig. 17; wire
    FLIT counts cross-check the bandwidth metrics of Figs. 13/14.

    Per-request latencies live in a bounded :class:`Histogram` (exact up
    to its sample limit, bucketed beyond), so a long replay no longer
    grows an unbounded Python list; :attr:`latencies` remains as a
    compatibility view over the exact sample prefix.
    """

    SNAPSHOT_DERIVED = ("mean_latency", "makespan")

    requests: int = 0
    reads: int = 0
    writes: int = 0
    atomics: int = 0
    payload_bytes: int = 0
    wire_flits: int = 0
    bank_conflicts: int = 0
    activations: int = 0
    #: Row-buffer outcomes under the open/adaptive page policies
    #: (:mod:`repro.hmc.bank`); both stay zero under closed page.
    row_hits: int = 0
    row_misses: int = 0
    total_latency_cycles: int = 0
    #: Completion cycle of the last request (stream makespan anchor).
    last_completion: int = 0
    #: Arrival cycle of the first request.
    first_arrival: int = -1
    #: Bounded per-request latency distribution.
    latency_hist: Histogram = field(default_factory=Histogram)
    size_histogram: Dict[int, int] = field(default_factory=dict)
    #: Per-site fault/recovery counters (``site -> event -> count``).
    #: Shares the injector's live FaultStats dict; empty when fault
    #: injection is disabled.
    fault_events: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record(
        self, arrival: int, completion: int, size: int, conflicts_delta: int
    ) -> None:
        self.requests += 1
        self.payload_bytes += size
        lat = completion - arrival
        self.total_latency_cycles += lat
        self.latency_hist.add(lat)
        self.size_histogram[size] = self.size_histogram.get(size, 0) + 1
        self.bank_conflicts += conflicts_delta
        if completion > self.last_completion:
            self.last_completion = completion
        if self.first_arrival < 0 or arrival < self.first_arrival:
            self.first_arrival = arrival

    @property
    def latencies(self) -> List[int]:
        """Exact per-request latencies (compatibility view).

        Faithful while the run is shorter than the histogram's sample
        limit; truncated to the exact prefix beyond it.
        """
        return [int(v) for v in self.latency_hist.samples]

    @property
    def mean_latency(self) -> float:
        return self.total_latency_cycles / self.requests if self.requests else 0.0

    @property
    def makespan(self) -> int:
        """Cycles from first arrival to last completion."""
        if self.first_arrival < 0:
            return 0
        return self.last_completion - self.first_arrival

    @property
    def wire_bytes(self) -> int:
        return self.wire_flits * 16

    def latency_percentile(self, q: float) -> float:
        """q-quantile (0..1) of per-request latency, linear-interpolated."""
        return self.latency_hist.quantile(q)

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(0.5)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(0.99)
