"""Cycle-level model of a Hybrid Memory Cube device (HMCSim stand-in).

Models the paper's 8 GB, 4-link HMC (Table 1): 32 vaults x 16 banks with
256 B rows (closed-page by default, live open/adaptive page policies
selectable), a packetized FLIT protocol with 32 B of control per access,
serialized full-duplex links and a configurable logic-layer NoC
(ideal crossbar, arbitrated xbar, ring or mesh — :mod:`repro.hmc.noc`).
"""

from .bank import PAGE_POLICIES, Bank, open_page_map
from .config import HMCConfig, PAPER_HMC
from .crossbar import Crossbar
from .device import HMCDevice
from .link import Link, LinkChannel
from .noc import (
    NOC_ARBITRATIONS,
    NOC_TOPOLOGIES,
    IdealNoC,
    MeshNoC,
    NoCStats,
    RingNoC,
    XbarNoC,
    build_noc,
)
from .packet import AddressMap, HMCCommand, WirePacket, encode, packet_crc, verify_crc
from .stats import HMCStats
from .timing import HMCTiming
from .vault import Vault, VaultStats

__all__ = [
    "AddressMap",
    "Bank",
    "Crossbar",
    "HMCCommand",
    "HMCConfig",
    "HMCDevice",
    "HMCStats",
    "HMCTiming",
    "IdealNoC",
    "Link",
    "LinkChannel",
    "MeshNoC",
    "NOC_ARBITRATIONS",
    "NOC_TOPOLOGIES",
    "NoCStats",
    "PAGE_POLICIES",
    "PAPER_HMC",
    "RingNoC",
    "Vault",
    "VaultStats",
    "WirePacket",
    "XbarNoC",
    "build_noc",
    "encode",
    "open_page_map",
    "packet_crc",
    "verify_crc",
]
