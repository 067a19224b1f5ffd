"""Cycle-level model of a Hybrid Memory Cube device (HMCSim stand-in).

Models the paper's 8 GB, 4-link HMC (Table 1): 32 vaults x 16 banks with
256 B rows (closed-page by default, live open/adaptive page policies
selectable), a packetized FLIT protocol with 32 B of control per access,
serialized full-duplex links and a configurable logic-layer NoC
(ideal crossbar, arbitrated xbar, ring or mesh — :mod:`repro.hmc.noc`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    bank=("PAGE_POLICIES", "Bank", "open_page_map"),
    config=("HMCConfig", "PAPER_HMC"),
    crossbar=("Crossbar",),
    device=("HMCDevice",),
    link=("Link", "LinkChannel"),
    noc=(
        "NOC_ARBITRATIONS", "NOC_TOPOLOGIES", "IdealNoC", "MeshNoC", "NoCStats",
        "RingNoC", "XbarNoC", "build_noc",
    ),
    packet=("AddressMap", "HMCCommand", "WirePacket", "encode"),
    stats=("HMCStats",),
    timing=("HMCTiming",),
    vault=("Vault", "VaultStats"),
)

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
]
