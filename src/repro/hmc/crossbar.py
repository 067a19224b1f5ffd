"""Legacy link-to-vault crossbar of the HMC logic layer.

Modelled as a fixed-latency switch with per-vault output contention folded
into the vault front-end (which is single-issue).  Superseded by the
configurable NoC subsystem (:mod:`repro.hmc.noc`), whose ``ideal``
topology reproduces these semantics bit for bit; the class is kept as
the executable reference for the equivalence property in
``tests/sim/test_noc_equivalence.py`` (its raw ``forwarded``/``returned``
ints are not exported — the NoC's :class:`repro.hmc.noc.NoCStats`
is).  Like the NoC it has no clock edge of its own, so it answers no
wake.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timing import HMCTiming


@dataclass(slots=True)
class Crossbar:
    """Fixed-latency link<->vault switch."""

    timing: HMCTiming
    forwarded: int = 0
    returned: int = 0

    def to_vault(self, cycle: int) -> int:
        """Deliver a request from a link to its vault."""
        self.forwarded += 1
        return cycle + self.timing.crossbar_latency

    def to_link(self, cycle: int) -> int:
        """Deliver a response from a vault to its link."""
        self.returned += 1
        return cycle + self.timing.crossbar_latency
