"""FLIT map — the per-row request bitmap of the ARQ (paper Fig. 6).

Each ARQ entry holds one ``FlitMap``: a 16-bit bitmap (for 256 B rows of
16 B FLITs) with one bit per FLIT of the row, set when any merged raw
request touches that FLIT.  The request builder's first stage OR-reduces
the map into one bit per 64 B group (section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple


def group_masks(nflits: int, groups: int) -> Tuple[Tuple[int, int], ...]:
    """``(group bit, FLIT mask)`` per builder group of an ``nflits`` row.

    Group *g* covers FLITs ``[g * per, (g + 1) * per)`` with
    ``per = nflits // groups``; bit 0 is the lowest-addressed chunk.
    """
    if groups < 1 or nflits % groups:
        raise ValueError(f"cannot split {nflits} FLITs into {groups} groups")
    per = nflits // groups
    mask = (1 << per) - 1
    return tuple((1 << g, mask << (g * per)) for g in range(groups))


def group_or(bits: int, masks: Tuple[Tuple[int, int], ...]) -> int:
    """Builder stage 1 (Fig. 8): OR-reduce a FLIT bitmap into group bits.

    The one copy of the reduction: :meth:`FlitMap.group_bits`, the
    pipelined builder and the window engine's int bitmaps all call it.
    """
    out = 0
    for gbit, mask in masks:
        if bits & mask:
            out |= gbit
    return out


@dataclass(slots=True)
class FlitMap:
    """Bitmap of requested FLITs within one DRAM row.

    Args:
        nflits: number of FLITs per row (16 for the paper's 256 B rows).
    """

    nflits: int = 16
    bits: int = field(default=0)

    def __post_init__(self) -> None:
        if not 1 <= self.nflits <= 64:
            raise ValueError("FLIT map supports 1..64 FLITs per row")
        if self.bits >> self.nflits:
            raise ValueError("bitmap has bits outside the row")

    # -- single-bit operations ---------------------------------------------

    def set(self, flit_id: int) -> None:
        """Mark ``flit_id`` as requested."""
        if not 0 <= flit_id < self.nflits:
            self._check(flit_id)
        self.bits |= 1 << flit_id

    def test(self, flit_id: int) -> bool:
        """Whether ``flit_id`` has been requested."""
        self._check(flit_id)
        return bool((self.bits >> flit_id) & 1)

    def clear(self) -> None:
        """Reset all bits (entry recycled)."""
        self.bits = 0

    # -- whole-map queries ---------------------------------------------------

    def count(self) -> int:
        """Number of distinct FLITs requested."""
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def flit_ids(self) -> Iterator[int]:
        """Iterate over set FLIT ids in ascending order."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def first(self) -> int:
        """Lowest requested FLIT id (raises on empty map)."""
        if not self.bits:
            raise ValueError("empty FLIT map")
        return (self.bits & -self.bits).bit_length() - 1

    def last(self) -> int:
        """Highest requested FLIT id (raises on empty map)."""
        if not self.bits:
            raise ValueError("empty FLIT map")
        return self.bits.bit_length() - 1

    # -- builder stage 1 -----------------------------------------------------

    def group_bits(self, groups: int = 4) -> int:
        """OR-reduce the map into ``groups`` equal chunks (stage 1, Fig. 8).

        Returns an integer whose bit *g* is set iff any FLIT in group *g*
        (a consecutive 64 B chunk for the default geometry) is requested.
        Bit 0 corresponds to the lowest-addressed chunk.
        """
        return group_or(self.bits, group_masks(self.nflits, groups))

    def copy(self) -> "FlitMap":
        return FlitMap(self.nflits, self.bits)

    def _check(self, flit_id: int) -> None:
        if not 0 <= flit_id < self.nflits:
            raise ValueError(f"flit id {flit_id} outside 0..{self.nflits - 1}")

    def __str__(self) -> str:  # e.g. "0000000000100000" for bit 5
        return format(self.bits, f"0{self.nflits}b")
