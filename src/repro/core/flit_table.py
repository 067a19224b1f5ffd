"""FLIT map -> packet plan: both request-builder stages (paper section 4.2).

An ARQ entry's FLIT map (paper Fig. 6) is a plain int with one bit per
FLIT of the row (16 bits for 256 B rows of 16 B FLITs), set when any
merged raw request touches that FLIT.  Builder stage 1 OR-reduces it into
one bit per 64 B group (:func:`group_or`); stage 2 looks the group
pattern up in the FLIT table (:func:`plan_table`), a ``2**groups``-entry
LUT whose lookup is a single cycle (section 4.2.1).

The table maps the group bits to the size of the coalesced transaction.
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
from typing import List, Optional, Tuple

#: One row's packet plan: ``(byte offset, bytes, first FLIT, end FLIT)``
#: per packet, FLIT bounds half-open.  The FLIT table holds one per group
#: pattern; a bypass row is the one-FLIT plan of its single target.
Segments = Tuple[Tuple[int, int, int, int], ...]

#: A policy's ``(chunk offset, chunk length)`` transactions within a row.
Chunks = List[Tuple[int, int]]


class FlitTablePolicy(enum.Enum):
    """How the FLIT table sizes transactions for a group-bit pattern."""

    SPAN = "span"
    POPCOUNT = "popcount"
    EXACT = "exact"


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

    The one copy of the reduction: the pipelined builder and the window
    engine both call it.
    """
    out = 0
    for gbit, mask in masks:
        if bits & mask:
            out |= gbit
    return out


def _span_segments(pattern: int, groups: int) -> Chunks:
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
    return [(offset, length)]


def _popcount_segments(pattern: int, groups: int) -> Chunks:
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
    return [(offset, length)]


def _exact_segments(pattern: int, groups: int) -> Chunks:
    """One segment per maximal run of consecutive set chunks."""
    segments: Chunks = []
    g = 0
    while g < groups:
        if (pattern >> g) & 1:
            start = g
            while g < groups and (pattern >> g) & 1:
                g += 1
            segments.append((start, g - start))
        else:
            g += 1
    return segments


def _cap_segments(segments: Chunks, pattern: int, max_chunks: int) -> Chunks:
    """Cut segments longer than ``max_chunks`` at aligned boundaries.

    Pieces stay inside their segment, so they are disjoint and cover
    every requested chunk the segment covered; a piece holding no
    requested chunk is dropped.
    """
    out: Chunks = []
    for offset, length in segments:
        if length <= max_chunks:
            out.append((offset, length))
            continue
        lo, end = offset, offset + length
        while lo < end:
            hi = min(end, (lo // max_chunks + 1) * max_chunks)
            if (pattern >> lo) & ((1 << (hi - lo)) - 1):
                out.append((lo, hi - lo))
            lo = hi
    return out


_POLICY_FN = {
    FlitTablePolicy.SPAN: _span_segments,
    FlitTablePolicy.POPCOUNT: _popcount_segments,
    FlitTablePolicy.EXACT: _exact_segments,
}


def plan_table(
    groups: int = 4,
    flits_per_group: int = 4,
    flit_bytes: int = 16,
    policy: FlitTablePolicy = FlitTablePolicy.SPAN,
    max_chunks: Optional[int] = None,
) -> Tuple[Segments, ...]:
    """The FLIT table: the :data:`Segments` plan of every group pattern.

    Indexed by the stage-1 pattern; ``max_chunks`` (default: the whole
    row) caps every emitted segment, see the module docstring.
    """
    if groups < 1 or groups > 16:
        raise ValueError("FLIT table supports 1..16 groups")
    if max_chunks is None:
        max_chunks = groups
    if max_chunks < 1:
        raise ValueError(f"max_chunks must be positive, got {max_chunks}")
    fn = _POLICY_FN[policy]
    chunk = flits_per_group * flit_bytes
    per = flits_per_group
    return tuple(
        tuple(
            (lo * chunk, n * chunk, lo * per, (lo + n) * per)
            for lo, n in _cap_segments(fn(pattern, groups), pattern, max_chunks)
        )
        for pattern in range(1 << groups)
    )
