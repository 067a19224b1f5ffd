"""DRAM bank model with selectable page policies (paper section 2.2.1).

The paper's HMC operates **closed-page**: every access activates its
row, bursts the columns, and precharges — the bank is busy for the
whole sequence and any request arriving meanwhile suffers a *bank
conflict* and waits.  That remains the default and is bit-identical to
the original closed-page-only model.

Two live alternatives quantify the paper's justification for it on the
device model:

* ``open``     — the row stays latched in the sense amplifiers.  A
  *row hit* (same row) skips activation; a *row miss* (different row
  open) pays ``t_precharge`` before the new activation.
* ``adaptive`` — open-page with a per-bank 2-bit hit-confidence
  counter: rows stay open while hits keep coming, and the bank falls
  back to precharging immediately (closed-page behaviour) while the
  stream looks random.  Deterministic, no wall-clock or RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timing import HMCTiming

#: Selectable bank page policies (``HMCConfig.page_policy``).
PAGE_POLICIES = ("closed", "open", "adaptive")

#: Adaptive policy: 2-bit saturating hit-confidence counter bounds.
_ADAPTIVE_MAX = 3
_ADAPTIVE_START = 1


@dataclass(slots=True)
class Bank:
    """Busy-time + row-buffer bookkeeping for one DRAM bank."""

    timing: HMCTiming
    #: Page policy (see :data:`PAGE_POLICIES`); ``closed`` reproduces
    #: the original model cycle for cycle.
    policy: str = "closed"
    #: Cycle at which the bank can accept its next activation.
    ready_cycle: int = 0
    accesses: int = 0
    activations: int = 0
    conflicts: int = 0
    busy_cycles: int = 0
    #: Last row activated — under closed-page it never stays open, so
    #: tracking it lets tests assert that row-buffer hits are impossible;
    #: under open-page it is the row the sense amplifiers hold.
    last_row: int = -1
    #: Whether ``last_row`` is latched open (always False when closed).
    row_open: bool = False
    #: Open/adaptive row-buffer outcome counters.
    row_hits: int = 0
    row_misses: int = 0
    #: What the most recent access was ("closed", "hit", "miss", "cold")
    #: — the vault reads it to charge the ROW_MISS stall span.
    last_kind: str = ""
    #: Cycle the most recent access started service (after any conflict
    #: wait); the vault reads it to anchor stall spans.
    last_start: int = 0
    #: Adaptive policy's saturating hit-confidence counter.
    _confidence: int = _ADAPTIVE_START

    def __post_init__(self) -> None:
        if self.policy not in PAGE_POLICIES:
            raise ValueError(f"unknown page policy {self.policy!r}")

    def access(self, arrival: int, dram_row: int, columns: int) -> int:
        """Serve one access arriving at ``arrival``.

        Returns the cycle at which the burst data is available.  Under
        closed-page the precharge completes afterwards but is off the
        critical path of the requester — it only delays the *next*
        access; under open-page a row miss pays the precharge up front.
        """
        if arrival < 0:
            raise ValueError("arrival cycle must be non-negative")
        if arrival < self.ready_cycle:
            # Bank busy: conflict, wait for the in-flight access to clear.
            self.conflicts += 1
            start = self.ready_cycle
        else:
            start = arrival
        self.last_start = start
        t = self.timing
        if self.policy == "closed":
            # ``occupancy`` is ``t.bank_occupancy(columns)``, summed once.
            service = t.t_activate + t.t_column + t.burst_cycles(columns)
            data_ready = start + service
            occupancy = service + t.t_precharge
            self.activations += 1  # closed page: every access activates
            self.last_kind = "closed"
        else:
            data_ready, occupancy = self._open_access(dram_row, start, columns)
        self.ready_cycle = start + occupancy
        self.busy_cycles += occupancy
        self.accesses += 1
        self.last_row = dram_row
        return data_ready

    def _open_access(self, dram_row: int, start: int, columns: int):
        """Open/adaptive service: returns ``(data_ready, occupancy)``."""
        t = self.timing
        if self.row_open and self.last_row == dram_row:
            self.row_hits += 1
            self.last_kind = "hit"
            service = t.open_hit_cycles(columns)
        elif self.row_open:
            self.row_misses += 1
            self.last_kind = "miss"
            self.activations += 1
            service = t.open_miss_cycles(columns)
        else:
            # Cold bank (or adaptively precharged): plain activation.
            self.row_misses += 1
            self.last_kind = "cold"
            self.activations += 1
            service = t.t_activate + t.t_column + t.burst_cycles(columns)
        occupancy = service
        self.row_open = True
        if self.policy == "adaptive":
            # A cold access that re-touches the previously latched row
            # *would* have hit had the row stayed open — count it as
            # evidence for openness, or the counter could never recover
            # from a closed phase.
            would_hit = self.last_kind == "hit" or (
                self.last_kind == "cold" and self.last_row == dram_row
            )
            if would_hit:
                self._confidence = min(_ADAPTIVE_MAX, self._confidence + 1)
            else:
                self._confidence = max(0, self._confidence - 1)
            if self._confidence == 0:
                # No hit locality: precharge immediately, like closed page.
                occupancy += t.t_precharge
                self.row_open = False
        return start + service, occupancy

    @property
    def conflict_rate(self) -> float:
        return self.conflicts / self.accesses if self.accesses else 0.0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0
