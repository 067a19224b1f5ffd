"""Configuration of the MAC unit (paper Table 1 and sections 4.1-4.2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .request import TARGET_BYTES


@dataclass(frozen=True, slots=True)
class MACConfig:
    """All tunables of the Memory Access Coalescer.

    Defaults reproduce the paper's simulated configuration (Table 1):
    a 32-entry ARQ with 64 B entries in front of an HMC with 256 B rows,
    16 B FLITs, one ARQ accept per cycle and one ARQ pop every 2 cycles
    (the request-builder pipeline issues 0.5 requests/cycle, section 4.4).
    """

    #: Number of Aggregated Request Queue entries (Fig. 11 sweeps this).
    arq_entries: int = 32
    #: Bytes of storage per ARQ entry; bounds how many targets fit.
    arq_entry_bytes: int = 64
    #: DRAM row length of the attached device; 256 B for HMC (section 4.1).
    row_bytes: int = 256
    #: FLIT (flow-control unit) size of the HMC protocol.
    flit_bytes: int = 16
    #: Minimum transaction granularity emitted by the request builder.
    min_request_bytes: int = 64
    #: Maximum transaction size supported by the device (HMC 2.1: 256 B).
    max_request_bytes: int = 256
    #: Raw requests accepted into the ARQ per cycle (section 4.4).
    accepts_per_cycle: int = 1
    #: Cycles between ARQ pops; 2 because the builder pipeline issues at
    #: 0.5 requests/cycle (section 4.4).
    pop_interval: int = 2
    #: Request-builder pipeline depth: stage 1 (group OR) takes 1 cycle,
    #: stage 2 (FLIT-table lookup + assembly) takes 2 cycles (section 4.2.1).
    builder_stage1_cycles: int = 1
    builder_stage2_cycles: int = 2
    #: Physical-address width; bit 52 doubles as the T (type) bit
    #: (section 4.1.2).
    phys_addr_bits: int = 52
    #: Enable the latency-hiding bypass: when the free-entry counter
    #: exceeds half the ARQ size, incoming requests skip the comparators
    #: and fill free entries directly (section 4.1).
    latency_hiding: bool = True
    #: Bytes of fixed target bookkeeping in each entry: the extended 64-bit
    #: address (row number + B/T bits) plus the 16-bit FLIT map occupy 10 B
    #: (section 5.3.3).
    entry_header_bytes: int = 10

    def __post_init__(self) -> None:
        if self.arq_entries < 1:
            raise ValueError("ARQ needs at least one entry")
        # The address codec masks with ``size - 1`` and shifts by
        # ``log2(size)``, so every geometry size must be a power of two.
        for name in ("row_bytes", "flit_bytes", "min_request_bytes"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ValueError(f"{name} must be a power of two, got {value}")
        if self.row_bytes % self.flit_bytes:
            raise ValueError("row size must be a multiple of the FLIT size")
        if self.flits_per_row > 64:
            raise ValueError("FLIT map wider than 64 bits is unsupported")
        if self.min_request_bytes % self.flit_bytes:
            raise ValueError("min request size must be FLIT aligned")
        if self.max_request_bytes > self.row_bytes:
            raise ValueError("requests may not exceed one DRAM row")
        # The FLIT table caps packets at a whole number of chunks, cut at
        # chunk boundaries aligned to the cap.
        value = self.max_request_bytes
        if value < self.min_request_bytes or value & (value - 1):
            raise ValueError(
                "max_request_bytes must be a power of two no smaller than "
                f"min_request_bytes ({self.min_request_bytes}), got {value}"
            )
        if self.pop_interval < 1:
            raise ValueError("pop interval must be positive")
        if self.target_capacity < 1:
            raise ValueError(
                f"arq_entry_bytes={self.arq_entry_bytes} leaves room for no "
                f"target (target_capacity={self.target_capacity})"
            )
        # Kept as fields so saved configs still load; the cycle model
        # implements exactly one value of each.
        for name in ("accepts_per_cycle", "builder_stage1_cycles"):
            value = getattr(self, name)
            if value != 1:
                raise ValueError(f"{name} must be 1 (the modelled value), got {value}")

    @property
    def flits_per_row(self) -> int:
        """FLITs per DRAM row: 16 for the 256 B HMC row."""
        return self.row_bytes // self.flit_bytes

    @property
    def flits_per_group(self) -> int:
        """FLITs per builder group (64 B chunk -> 4 FLITs)."""
        return self.min_request_bytes // self.flit_bytes

    @property
    def groups_per_row(self) -> int:
        """Builder stage-1 groups per row (4 for 256 B rows / 64 B chunks)."""
        return self.row_bytes // self.min_request_bytes

    @property
    def row_offset_bits(self) -> int:
        """Address bits holding the in-row offset (8 for 256 B rows)."""
        return (self.row_bytes - 1).bit_length()

    @property
    def flit_offset_bits(self) -> int:
        """Address bits holding the in-FLIT byte offset (4 for 16 B FLITs)."""
        return (self.flit_bytes - 1).bit_length()

    @property
    def target_capacity(self) -> int:
        """Distinct raw requests one ARQ entry can merge (12 in the paper).

        64 B entry - 10 B header leaves 54 B; at 4.5 B per target that is
        12 targets (section 5.3.3).
        """
        usable = self.arq_entry_bytes - self.entry_header_bytes
        return int(usable // TARGET_BYTES)

    @property
    def bypass_threshold(self) -> int:
        """Free-entry count beyond which latency hiding engages.

        The paper: "if the counter reaches a value N larger than half of
        the ARQ size" (section 4.1).
        """
        return self.arq_entries // 2


#: The exact configuration evaluated in the paper (Table 1).
PAPER_CONFIG = MACConfig()


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Node-level parameters from Table 1 used across experiments."""

    cores: int = 8
    cpu_freq_ghz: float = 3.3
    spm_bytes: int = 1 << 20  # 1 MB per core
    spm_latency_ns: float = 1.0
    hmc_links: int = 4
    hmc_capacity_gb: int = 8
    hmc_latency_ns: float = 93.0
    mac: MACConfig = field(default_factory=MACConfig)

    @property
    def spm_latency_cycles(self) -> int:
        return max(1, round(self.spm_latency_ns * self.cpu_freq_ghz))

    @property
    def hmc_latency_cycles(self) -> int:
        return max(1, round(self.hmc_latency_ns * self.cpu_freq_ghz))


PAPER_SYSTEM = SystemConfig()
