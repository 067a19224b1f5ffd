"""FLIT table — stage-2 lookup of the request builder (paper section 4.2.1).

The table maps the 4 group bits produced by builder stage 1 (one bit per
64 B chunk of the 256 B row) to the size of the coalesced transaction.
The paper's table emits 64, 128 or 256 B requests; the example in Fig. 7/8
maps pattern ``0110`` to a single 128 B transaction, i.e. the emitted
request is the smallest power-of-two span (in chunks) that covers every
requested chunk, anchored at the first requested chunk.

Because a bit pattern such as ``1001`` cannot be covered by a contiguous
128 B transaction, policies differ in how they handle sparse patterns:

* ``SPAN`` (paper semantics) — emit one transaction covering the chunk
  span ``[first_set, last_set]``, rounded up to a power of two; sparse
  patterns over-fetch but always produce exactly one packet.
* ``POPCOUNT`` — size by number of set chunks (1 -> 64, 2 -> 128,
  3/4 -> 256) anchored to cover the span; equals SPAN for contiguous
  patterns, under-covers sparse ones, so it is widened to the span when
  needed.  Kept as the literal reading of the paper's text.
* ``EXACT`` — emit one transaction per maximal run of set chunks; never
  over-fetches but may emit several packets per row (ablation).

Every policy honours the device's maximum transaction size
(``MACConfig.max_request_bytes``, ``max_chunks`` chunks here): a segment
longer than the cap is cut at every ``max_chunks``-aligned chunk
boundary, and pieces that cover no requested chunk are dropped.  The cut
happens while the table is built, so a lookup costs the same.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple


class FlitTablePolicy(enum.Enum):
    """How the FLIT table sizes transactions for a group-bit pattern."""

    SPAN = "span"
    POPCOUNT = "popcount"
    EXACT = "exact"


@dataclass(frozen=True, slots=True)
class BuiltSegment:
    """One (chunk offset, chunk length) transaction within a row.

    ``offset`` and ``length`` are in units of chunks (64 B for the default
    geometry); the builder converts them to byte addresses/sizes.
    """

    offset: int
    length: int


def _span_segments(pattern: int, groups: int) -> List[BuiltSegment]:
    """Single power-of-two-sized segment covering all set chunks."""
    if pattern == 0:
        return []
    first = (pattern & -pattern).bit_length() - 1
    last = pattern.bit_length() - 1
    span = last - first + 1
    # Round the span up to a power of two, capped at the row size.
    length = 1
    while length < span:
        length <<= 1
    length = min(length, groups)
    # Anchor so the segment stays inside the row.
    offset = min(first, groups - length)
    return [BuiltSegment(offset, length)]


def _popcount_segments(pattern: int, groups: int) -> List[BuiltSegment]:
    """Paper-text sizing by set-bit count, widened to cover the span."""
    if pattern == 0:
        return []
    count = pattern.bit_count()
    length = 1 if count == 1 else (2 if count == 2 else groups)
    first = (pattern & -pattern).bit_length() - 1
    last = pattern.bit_length() - 1
    if last - first + 1 > length:  # sparse pair like 1001: widen to cover
        return _span_segments(pattern, groups)
    offset = min(first, groups - length)
    return [BuiltSegment(offset, length)]


def _exact_segments(pattern: int, groups: int) -> List[BuiltSegment]:
    """One segment per maximal run of consecutive set chunks."""
    segments: List[BuiltSegment] = []
    g = 0
    while g < groups:
        if (pattern >> g) & 1:
            start = g
            while g < groups and (pattern >> g) & 1:
                g += 1
            segments.append(BuiltSegment(start, g - start))
        else:
            g += 1
    return segments


def _cap_segments(
    segments: List[BuiltSegment], pattern: int, max_chunks: int
) -> List[BuiltSegment]:
    """Cut segments longer than ``max_chunks`` at aligned boundaries.

    Pieces stay inside their segment, so they are disjoint and cover
    every requested chunk the segment covered; a piece holding no
    requested chunk is dropped.
    """
    out: List[BuiltSegment] = []
    for seg in segments:
        if seg.length <= max_chunks:
            out.append(seg)
            continue
        lo, end = seg.offset, seg.offset + seg.length
        while lo < end:
            hi = min(end, (lo // max_chunks + 1) * max_chunks)
            if (pattern >> lo) & ((1 << (hi - lo)) - 1):
                out.append(BuiltSegment(lo, hi - lo))
            lo = hi
    return out


_POLICY_FN = {
    FlitTablePolicy.SPAN: _span_segments,
    FlitTablePolicy.POPCOUNT: _popcount_segments,
    FlitTablePolicy.EXACT: _exact_segments,
}


class FlitTable:
    """Precomputed lookup table: group-bit pattern -> built segments.

    Mirrors the hardware structure: a ``2**groups``-entry LUT whose lookup
    is a single cycle (section 4.2.1).  The table is immutable after
    construction.  ``max_chunks`` (default: the whole row) caps every
    emitted segment, see the module docstring.
    """

    def __init__(
        self,
        groups: int = 4,
        chunk_bytes: int = 64,
        policy: FlitTablePolicy = FlitTablePolicy.SPAN,
        max_chunks: Optional[int] = None,
    ) -> None:
        if groups < 1 or groups > 16:
            raise ValueError("FLIT table supports 1..16 groups")
        if chunk_bytes < 1:
            raise ValueError("chunk size must be positive")
        if max_chunks is None:
            max_chunks = groups
        if max_chunks < 1:
            raise ValueError(f"max_chunks must be positive, got {max_chunks}")
        self.groups = groups
        self.chunk_bytes = chunk_bytes
        self.policy = policy
        self.max_chunks = max_chunks
        fn = _POLICY_FN[policy]
        self._table: Tuple[Tuple[BuiltSegment, ...], ...] = tuple(
            tuple(_cap_segments(fn(pattern, groups), pattern, max_chunks))
            for pattern in range(1 << groups)
        )

    def lookup(self, pattern: int) -> Tuple[BuiltSegment, ...]:
        """Segments (chunk offset/length) for a stage-1 group-bit pattern."""
        if not 0 <= pattern < (1 << self.groups):
            raise ValueError(f"pattern {pattern:#x} outside {self.groups}-bit range")
        return self._table[pattern]

    def request_bytes(self, pattern: int) -> int:
        """Total transaction payload bytes emitted for ``pattern``."""
        return sum(s.length for s in self.lookup(pattern)) * self.chunk_bytes

    def packet_count(self, pattern: int) -> int:
        """Number of packets emitted for ``pattern`` (1 except EXACT)."""
        return len(self.lookup(pattern))

    @property
    def storage_bytes(self) -> int:
        """Hardware footprint of the LUT.

        The paper reports 12 B for the 16-entry table: each entry stores a
        size selector of 6 bits (2 bits size + 4 bits base), i.e.
        ``2**groups * 6 / 8`` bytes.
        """
        return (1 << self.groups) * 6 // 8

    def __repr__(self) -> str:
        return (
            f"FlitTable(groups={self.groups}, chunk_bytes={self.chunk_bytes}, "
            f"policy={self.policy.value}, max_chunks={self.max_chunks})"
        )
