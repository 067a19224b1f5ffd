"""Analytic area/space model of the MAC (paper sections 4.4 and 5.3.3).

Reproduces Fig. 16 and the 2062 B total of the text: the ARQ occupies
``entries x 64 B``; the request builder adds a fixed 14 B (16-bit FLIT
map latch + 12 B FLIT table); per-entry comparators and the 4 OR gates
are counted as logic, not memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MACConfig


@dataclass(frozen=True, slots=True)
class AreaReport:
    """Space breakdown of one MAC instance."""

    arq_entries: int
    arq_bytes: int
    builder_bytes: int
    comparators: int
    or_gates: int

    @property
    def total_bytes(self) -> int:
        return self.arq_bytes + self.builder_bytes


def arq_bytes(entries: int, entry_bytes: int = 64) -> int:
    """ARQ storage (Fig. 16): 8 entries -> 512 B ... 256 -> 16 KB."""
    if entries < 1:
        raise ValueError("entries must be positive")
    return entries * entry_bytes


def builder_bytes(config: MACConfig | None = None) -> int:
    """Fixed request-builder state: FLIT-map latch + FLIT table = 14 B."""
    cfg = config or MACConfig()
    flit_map_bytes = cfg.flits_per_row // 8  # 16 bits -> 2 B
    flit_table_bytes = (1 << cfg.groups_per_row) * 6 // 8  # 16 entries -> 12 B
    return flit_map_bytes + flit_table_bytes


def mac_area(config: MACConfig | None = None) -> AreaReport:
    """Full area report; the paper's configuration totals 2062 B."""
    cfg = config or MACConfig()
    return AreaReport(
        arq_entries=cfg.arq_entries,
        arq_bytes=arq_bytes(cfg.arq_entries, cfg.arq_entry_bytes),
        builder_bytes=builder_bytes(cfg),
        comparators=cfg.arq_entries,
        or_gates=cfg.groups_per_row,
    )


def entry_capacity(config: MACConfig | None = None) -> int:
    """Targets one entry can hold (section 5.3.3: (64-10)/4.5 = 12)."""
    cfg = config or MACConfig()
    return cfg.target_capacity
