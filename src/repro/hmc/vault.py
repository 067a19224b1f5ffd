"""Vault controller model.

Each vault hosts a memory controller in the HMC logic layer managing its
own banks.  The controller front-end is a single-issue queue: requests
are admitted in arrival order, pay a fixed processing latency, and then
occupy their target bank per the closed-page timing in
:mod:`repro.hmc.bank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..obs.attribution import StallCause
from ..obs.observers import NO_OBSERVERS, Observers
from ..obs.protocol import StatsMixin
from .bank import Bank
from .config import HMCConfig
from .timing import HMCTiming


@dataclass(slots=True)
class VaultStats(StatsMixin):
    requests: int = 0
    queue_wait_cycles: int = 0
    service_cycles: int = 0


class Vault:
    """One vault: front-end queue + banks."""

    def __init__(
        self, index: int, config: HMCConfig, obs: Observers = NO_OBSERVERS
    ) -> None:
        self.index = index
        self.config = config
        self.timing: HMCTiming = config.timing
        self.tracer = obs.tracer
        self.attrib = obs.attrib
        self.banks: List[Bank] = [
            Bank(self.timing, policy=config.page_policy)
            for _ in range(config.banks_per_vault)
        ]
        #: Cycle at which the controller front-end frees up.
        self.frontend_ready = 0
        #: Bank-dispatch cycle of the most recent :meth:`access` (the
        #: device reads it to stamp the ``bank_dispatch`` mark).
        self.last_dispatched = 0
        self.stats = VaultStats()

    def access(
        self, arrival: int, bank_idx: int, dram_row: int, columns: int, is_write: bool
    ) -> int:
        """Serve one request; returns the cycle its data leaves the vault.

        The front-end admits one request per ``vault_processing`` window
        (in-order), then the bank timing applies.  Writes complete (for
        acknowledgement purposes) when the burst has been absorbed.
        """
        if not 0 <= bank_idx < len(self.banks):
            raise ValueError(f"bank {bank_idx} out of range")
        st = self.stats
        st.requests += 1

        ready = self.frontend_ready
        start = arrival if arrival > ready else ready
        st.queue_wait_cycles += start - arrival
        dispatched = start + self.timing.vault_processing
        self.frontend_ready = self.last_dispatched = dispatched

        bank = self.banks[bank_idx]
        at = self.attrib
        if at.enabled:
            if start > arrival:
                at.stall_span(
                    "vault", StallCause.VAULT_QUEUE_FULL, arrival, start
                )
            if bank.ready_cycle > dispatched:
                at.stall_span(
                    "bank", StallCause.BANK_CONFLICT, dispatched, bank.ready_cycle
                )
            at.sample_depth(
                "vault_backlog", arrival, max(0, self.frontend_ready - arrival)
            )
        done = bank.access(dispatched, dram_row, columns)
        if at.enabled and bank.last_kind == "miss":
            # Open-page row miss: the precharge of the previously open
            # row is on the requester's critical path — charge it where
            # it was paid, at the start of the bank's service window.
            at.stall_span(
                "bank", StallCause.ROW_MISS,
                bank.last_start, bank.last_start + self.timing.t_precharge,
            )
        st.service_cycles += done - arrival
        if self.tracer.enabled:
            self.tracer.emit(
                "vault", "activate", dispatched,
                vault=self.index, bank=bank_idx, row=dram_row,
                write=is_write,
            )
            if bank.last_start > dispatched:  # the bank was busy
                self.tracer.emit(
                    "vault", "conflict", dispatched,
                    vault=self.index, bank=bank_idx, row=dram_row,
                )
        return done

    # -- aggregates -----------------------------------------------------------

    @property
    def bank_conflicts(self) -> int:
        return sum(b.conflicts for b in self.banks)

    @property
    def bank_accesses(self) -> int:
        return sum(b.accesses for b in self.banks)

    @property
    def activations(self) -> int:
        return sum(b.activations for b in self.banks)

    @property
    def row_hits(self) -> int:
        return sum(b.row_hits for b in self.banks)

    @property
    def row_misses(self) -> int:
        return sum(b.row_misses for b in self.banks)
