"""HMC device geometry and protocol configuration.

Defaults model the paper's device (Table 1): an 8 GB HMC 2.1 cube with
4 links, 32 vaults of 16 banks each (512 banks total, section 2.2.1),
256 B closed-page DRAM rows and a packetized protocol of 16 B FLITs with
one control FLIT per packet (32 B of control per access, section 2.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.config import FaultConfig
from repro.faults.models import LinkDegradation, LinkFailure

from .bank import PAGE_POLICIES
from .noc import NOC_ARBITRATIONS, NOC_TOPOLOGIES
from .timing import HMCTiming


@dataclass(frozen=True, slots=True)
class HMCConfig:
    """Geometry + protocol parameters of one HMC cube."""

    capacity_bytes: int = 8 << 30
    links: int = 4
    vaults: int = 32
    banks_per_vault: int = 16
    row_bytes: int = 256
    flit_bytes: int = 16
    #: Column (TSV burst) granularity inside a vault.
    column_bytes: int = 32
    #: Smallest/largest request payload the protocol accepts (HMC 2.1).
    min_request_bytes: int = 16
    max_request_bytes: int = 256
    #: Control FLITs per packet (header + tail = 1 FLIT = 16 B).
    control_flits_per_packet: int = 1
    #: Intra-cube interconnect topology (:mod:`repro.hmc.noc`).  The
    #: default ``ideal`` is bit-identical to the legacy fixed-latency
    #: crossbar; ``xbar``/``ring``/``mesh`` add port contention,
    #: bounded buffering and hop latency.
    noc_topology: str = "ideal"
    #: Per-output-port input-buffer depth (packets) of the non-ideal
    #: topologies; a full buffer backpressures into the link.
    noc_buffers: int = 8
    #: Port arbitration policy: ``fifo``, ``round_robin`` or
    #: ``oldest_first`` (see :mod:`repro.hmc.noc`).
    noc_arbitration: str = "fifo"
    #: DRAM bank page policy: ``closed`` (the paper's HMC, default),
    #: ``open`` or ``adaptive`` (see :mod:`repro.hmc.bank`).
    page_policy: str = "closed"
    timing: HMCTiming = field(default_factory=HMCTiming)
    #: Fault-injection + retry-protocol configuration; ``None`` (default)
    #: disables every fault path and keeps the model cycle-identical to
    #: the fault-free device.
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.links < 1 or self.vaults < 1 or self.banks_per_vault < 1:
            raise ValueError("links/vaults/banks must be positive")
        if self.noc_topology not in NOC_TOPOLOGIES:
            raise ValueError(
                f"unknown NoC topology {self.noc_topology!r} "
                f"(choose from {NOC_TOPOLOGIES})"
            )
        if self.noc_arbitration not in NOC_ARBITRATIONS:
            raise ValueError(
                f"unknown NoC arbitration {self.noc_arbitration!r} "
                f"(choose from {NOC_ARBITRATIONS})"
            )
        if self.noc_buffers < 1:
            raise ValueError("noc_buffers must be positive")
        if self.page_policy not in PAGE_POLICIES:
            raise ValueError(
                f"unknown page policy {self.page_policy!r} "
                f"(choose from {PAGE_POLICIES})"
            )
        if self.faults is not None:
            for model in self.faults.models:
                if (
                    isinstance(model, (LinkFailure, LinkDegradation))
                    and model.link >= self.links
                ):
                    raise ValueError(
                        f"{type(model).__name__} names link {model.link}, but "
                        f"the cube has {self.links} links "
                        f"(0..{self.links - 1})"
                    )
            # The largest packet (max payload + control FLITs) must fit
            # in both link-level buffers or flow control deadlocks.
            worst = (
                self.max_request_bytes // self.flit_bytes
                + self.control_flits_per_packet
            )
            if self.faults.link_tokens < worst:
                raise ValueError(
                    f"link token pool ({self.faults.link_tokens} FLITs) cannot "
                    f"hold a maximum-size packet ({worst} FLITs)"
                )
            if self.faults.retry_buffer_flits < worst:
                raise ValueError(
                    f"retry buffer ({self.faults.retry_buffer_flits} FLITs) "
                    f"cannot hold a maximum-size packet ({worst} FLITs)"
                )
        if self.vaults & (self.vaults - 1):
            raise ValueError("vault count must be a power of two")
        if self.banks_per_vault & (self.banks_per_vault - 1):
            raise ValueError("bank count must be a power of two")
        if self.row_bytes & (self.row_bytes - 1):
            raise ValueError("row size must be a power of two")
        if self.max_request_bytes > self.row_bytes:
            raise ValueError("requests may not exceed one row")

    @property
    def total_banks(self) -> int:
        """512 for the paper's 8 GB cube."""
        return self.vaults * self.banks_per_vault

    @property
    def row_offset_bits(self) -> int:
        return (self.row_bytes - 1).bit_length()

    @property
    def vault_bits(self) -> int:
        return (self.vaults - 1).bit_length()

    @property
    def bank_bits(self) -> int:
        return (self.banks_per_vault - 1).bit_length()

    # -- address mapping -----------------------------------------------------
    # HMC default mapping interleaves consecutive rows across vaults first,
    # then banks (low-order interleaving maximises vault-level parallelism
    # for streaming traffic).  Higher row bits are XOR-folded into the
    # vault/bank indices — the standard controller address hash that keeps
    # power-of-two strides (tiled matrices, histogram tables) from
    # aliasing onto a single vault.

    def vault_of(self, addr: int) -> int:
        row = addr >> self.row_offset_bits
        folded = row ^ (row >> self.vault_bits) ^ (row >> (2 * self.vault_bits))
        return folded & (self.vaults - 1)

    def bank_of(self, addr: int) -> int:
        upper = addr >> (self.row_offset_bits + self.vault_bits)
        folded = upper ^ (upper >> self.bank_bits)
        return folded & (self.banks_per_vault - 1)

    def dram_row_of(self, addr: int) -> int:
        """In-bank row index (above vault+bank bits)."""
        return addr >> (self.row_offset_bits + self.vault_bits + self.bank_bits)

    def global_row_of(self, addr: int) -> int:
        """Device-wide row number (the MAC's coalescing unit)."""
        return addr >> self.row_offset_bits

    def data_flits(self, size: int) -> int:
        """Payload FLITs for a request of ``size`` bytes."""
        if size < 1:
            raise ValueError("size must be positive")
        return -(-size // self.flit_bytes)

    def request_flits(self, size: int, is_write: bool) -> int:
        """FLITs on the request packet (writes carry the payload)."""
        data = self.data_flits(size) if is_write else 0
        return data + self.control_flits_per_packet

    def response_flits(self, size: int, is_write: bool) -> int:
        """FLITs on the response packet (reads carry the payload)."""
        data = 0 if is_write else self.data_flits(size)
        return data + self.control_flits_per_packet

    def columns(self, size: int) -> int:
        """TSV column bursts needed for ``size`` bytes."""
        return -(-size // self.column_bytes)


#: Device configuration used throughout the paper's evaluation.
PAPER_HMC = HMCConfig()
