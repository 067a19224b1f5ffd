"""DRAM and interconnect timing of the HMC model.

All values are in *CPU cycles* at the node clock (3.3 GHz in Table 1),
so the MAC and the device share one time base.  The defaults are
calibrated so an unloaded 16 B read completes in ~93 ns (Table 1's
average HMC access latency); see ``tests/hmc/test_device.py``.

The DRAM stack operates closed-page (section 2.2.1): every access pays
activate + column + burst, and the row is precharged immediately after,
so the bank stays busy for ACT + COL + burst + PRE.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every timing field, validated uniformly in ``__post_init__``.  All
#: are cycle counts and must be non-negative; a zero is legal and
#: means the stage takes no time (nothing divides by a timing).
TIMING_FIELDS = (
    "link_latency",
    "cycles_per_flit",
    "crossbar_latency",
    "vault_processing",
    "t_activate",
    "t_column",
    "t_precharge",
    "cycles_per_column",
    "noc_hop_cycles",
)


@dataclass(frozen=True, slots=True)
class HMCTiming:
    """Cycle counts of each stage of an HMC access at 3.3 GHz.

    ~13.6 ns DRAM core timings (45 cycles) match published HMC/DDR-class
    tRCD/tCL/tRP estimates; the 90-cycle link traversal (~27 ns each way)
    folds SerDes, retimer and flight latency.
    """

    #: One-way link traversal (SerDes + propagation), per direction.
    link_latency: int = 92
    #: Cycles to serialize one 16 B FLIT onto a link (30 Gbps x 16 lanes
    #: = 60 GB/s per direction ~ one FLIT per 3.3 GHz cycle).
    cycles_per_flit: int = 1
    #: Crossbar (link <-> vault) traversal, per direction.
    crossbar_latency: int = 8
    #: Vault-controller front-end processing per request.
    vault_processing: int = 8
    #: Row activation (tRCD).
    t_activate: int = 45
    #: Column access (tCL / tCAS).
    t_column: int = 45
    #: Precharge (tRP) — the closed-page tax on the *next* access.
    t_precharge: int = 45
    #: TSV burst cycles per 32 B column.
    cycles_per_column: int = 4
    #: Per-hop traversal cycles of the ring/mesh NoC topologies
    #: (:mod:`repro.hmc.noc`); the flat ideal/xbar switches have no hops.
    noc_hop_cycles: int = 2

    def __post_init__(self) -> None:
        for name in TIMING_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer cycle count")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")

    def burst_cycles(self, columns: int) -> int:
        """Data-burst cycles for ``columns`` 32 B column accesses."""
        return columns * self.cycles_per_column

    def bank_occupancy(self, columns: int) -> int:
        """Cycles the bank is unavailable per closed-page access."""
        return (
            self.t_activate + self.t_column + self.burst_cycles(columns) + self.t_precharge
        )

    def open_hit_cycles(self, columns: int) -> int:
        """Open-page row hit: the open row serves straight from the
        sense amplifiers — column access + burst, no activation."""
        return self.t_column + self.burst_cycles(columns)

    def open_miss_cycles(self, columns: int) -> int:
        """Open-page row miss with another row open: precharge it,
        activate the new row, then column access + burst."""
        return (
            self.t_precharge + self.t_activate + self.t_column
            + self.burst_cycles(columns)
        )

    def unloaded_read_latency(self, request_flits: int, response_flits: int, columns: int) -> int:
        """End-to-end latency of one isolated read (no queueing)."""
        return (
            request_flits * self.cycles_per_flit
            + self.link_latency
            + self.crossbar_latency
            + self.vault_processing
            + self.t_activate
            + self.t_column
            + self.burst_cycles(columns)
            + self.crossbar_latency
            + self.link_latency
            + response_flits * self.cycles_per_flit
        )
