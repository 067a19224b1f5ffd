"""HBM device model: pseudo-channels of closed-page banks, burst data bus.

Mirrors :class:`repro.hmc.device.HMCDevice`'s submit interface so the
MAC (and the figure drivers) can target either stack.  Differences that
matter to the MAC (section 4.3):

* requests are trains of 32 B bursts rather than FLIT packets — a
  coalesced 64 B - 1 KB transaction needs 2-32 bursts;
* control travels on the separate command/address bus, so there is no
  in-band 32 B-per-access overhead — the coalescing win on HBM is purely
  fewer bank activations and fewer command slots;
* the stack runs closed-page like the HMC (short 1 KB rows, many banks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.packet import CoalescedRequest, CoalescedResponse
from repro.hmc.bank import Bank  # closed-page bank model is shared
from repro.hmc.timing import HMCTiming
from repro.obs.protocol import StatsMixin

from .config import HBMConfig


@dataclass(slots=True)
class _Channel:
    """One pseudo-channel: its banks plus command/data-bus bookkeeping."""

    banks: List[Bank]
    cmd_ready: int = 0
    data_ready: int = 0
    cmd_slots: int = 0
    bursts: int = 0


@dataclass
class HBMStats(StatsMixin):
    SNAPSHOT_DERIVED = ("mean_latency", "makespan")

    requests: int = 0
    bursts: int = 0
    activations: int = 0
    bank_conflicts: int = 0
    total_latency: int = 0
    last_completion: int = 0
    first_arrival: int = -1

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.requests if self.requests else 0.0

    @property
    def makespan(self) -> int:
        if self.first_arrival < 0:
            return 0
        return self.last_completion - self.first_arrival

    @property
    def data_bus_bytes(self) -> int:
        return self.bursts * 32


class HBMDevice:
    """One HBM stack behind a MAC (section 4.3 applicability target)."""

    def __init__(self, config: Optional[HBMConfig] = None) -> None:
        self.config = config or HBMConfig()
        t = self.config.timing
        # Reuse the HMC closed-page bank with HBM burst granularity.
        bank_timing = HMCTiming(
            link_latency=0,
            cycles_per_flit=0,
            crossbar_latency=0,
            vault_processing=0,
            t_activate=t.t_activate,
            t_column=t.t_column,
            t_precharge=t.t_precharge,
            cycles_per_column=t.cycles_per_burst,
        )
        self.channels: List[_Channel] = [
            _Channel(banks=[Bank(bank_timing) for _ in range(self.config.banks_per_channel)])
            for _ in range(self.config.pseudo_channels)
        ]
        self.stats = HBMStats()
        self._last_arrival = 0

    def submit(self, request: CoalescedRequest, arrival: int) -> CoalescedResponse:
        """Serve one coalesced transaction as a train of 32 B bursts."""
        if arrival < self._last_arrival:
            raise ValueError("requests must be submitted in arrival order")
        self._last_arrival = arrival
        cfg = self.config
        t = cfg.timing
        # Quantize to the 32 B access granularity: a 16 B (one-FLIT)
        # bypass packet still moves a whole burst on HBM (section 4.3:
        # the HBM granularity equals a 2-FLIT HMC transaction).
        addr = request.addr & ~(cfg.burst_bytes - 1)
        end = request.addr + request.size
        size = max(end - addr, cfg.burst_bytes)
        row_base = addr & ~(cfg.row_bytes - 1)
        if end > row_base + cfg.row_bytes:
            raise ValueError("request crosses a DRAM row boundary")

        chan = self.channels[cfg.channel_of(addr)]
        bank_idx = cfg.bank_of(addr)
        bank = chan.banks[bank_idx]
        bursts = cfg.bursts(size)

        # Command bus: one ACT + one RD/WR command per access.
        cmd_start = max(arrival + t.io_latency, chan.cmd_ready)
        chan.cmd_ready = cmd_start + 2 * t.t_cmd
        chan.cmd_slots += 2

        conflicts_before = bank.conflicts
        data_ready = bank.access(cmd_start, cfg.dram_row_of(addr), bursts)
        conflicts_delta = bank.conflicts - conflicts_before

        # Data bus: the burst train serializes on the channel bus.
        bus_start = max(data_ready, chan.data_ready)
        bus_done = bus_start + bursts * t.cycles_per_burst
        chan.data_ready = bus_done
        chan.bursts += bursts

        complete = bus_done + t.io_latency
        st = self.stats
        st.requests += 1
        st.bursts += bursts
        st.activations += 1
        st.bank_conflicts += conflicts_delta
        st.total_latency += complete - arrival
        st.last_completion = max(st.last_completion, complete)
        if st.first_arrival < 0 or arrival < st.first_arrival:
            st.first_arrival = arrival
        return CoalescedResponse(
            request=request, complete_cycle=complete, service_cycles=complete - arrival
        )

    @property
    def bank_conflicts(self) -> int:
        return self.stats.bank_conflicts

    def unloaded_read_latency(self, size: int = 32) -> int:
        t = self.config.timing
        return (
            2 * t.io_latency
            + 2 * t.t_cmd
            + t.t_activate
            + t.t_column
            + self.config.bursts(size) * t.cycles_per_burst
        )
