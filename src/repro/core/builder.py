"""Two-stage pipelined Request Builder (paper section 4.2, Fig. 8).

Stage 1 (1 cycle) OR-reduces the 16-bit FLIT map of the entry popped from
the ARQ into 4 group bits, one per 64 B chunk of the 256 B row.  Stage 2
(2 cycles: table lookup + assembly) consults the FLIT table and emits the
coalesced transaction(s).  The pipeline therefore issues at a steady rate
of one packet every 2 cycles once primed (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .address import AddressCodec
from .arq import ARQEntry
from .config import MACConfig
from .flit_table import (
    FlitTablePolicy,
    Segments,
    group_masks,
    group_or,
    plan_table,
)
from .packet import CoalescedRequest
from .request import MemoryRequest, RequestType


def emit_row(
    codec: AddressCodec,
    key: int,
    segments: Segments,
    requests: List,
    cycle: int = 0,
    bypassed: bool = False,
    rtype: Optional[RequestType] = None,
    addrs: Optional[Sequence[int]] = None,
) -> List[CoalescedRequest]:
    """Assemble the packets of one ARQ row from plain fields.

    The one copy of the row-address and segment-split math, shared by
    the pipelined builder and the window engine.
    ``key`` is the ARQ comparator key (row number + T bit); the packets
    take the key's type unless ``rtype`` names one.  Each request
    goes to the packet whose FLIT range holds its FLIT id (address bits
    ``row_mask >> flit_shift``).  A single-packet plan covers every
    request, so that packet takes ``requests`` whole: callers hand the
    row's list over.  With ``addrs``, ``requests`` holds indices into
    ``addrs`` (the window engine's rows), and ``addrs[i]`` is the
    address of index ``i``.
    """
    store_bit = codec.store_bit
    row_base = (key & (store_bit - 1)) << codec.row_shift
    if rtype is None:
        rtype = RequestType.STORE if key & store_bit else RequestType.LOAD
    if len(segments) == 1:
        offset, size, _, _ = segments[0]
        return [
            CoalescedRequest(row_base + offset, size, rtype, requests, bypassed, cycle)
        ]
    row_mask, flit_shift = codec.row_mask, codec.flit_shift
    if addrs is None:
        flits = [(r.addr & row_mask) >> flit_shift for r in requests]
    else:
        flits = [(addrs[i] & row_mask) >> flit_shift for i in requests]
    return [
        CoalescedRequest(
            row_base + offset,
            size,
            rtype,
            [r for r, f in zip(requests, flits) if lo <= f < hi],
            bypassed,
            cycle,
        )
        for offset, size, lo, hi in segments
    ]


@dataclass(slots=True)
class _StageSlot:
    """Pipeline latch between/inside builder stages."""

    entry: ARQEntry
    pattern: int = 0
    remaining: int = 0


class RequestBuilder:
    """Cycle-level model of the two-stage pipelined request builder.

    Stage 1's OR-reduction is :func:`repro.core.flit_table.group_or`;
    stage 2 hands the row to :func:`emit_row` with the FLIT table's plan.
    """

    def __init__(
        self,
        config: MACConfig,
        codec: Optional[AddressCodec] = None,
        policy: FlitTablePolicy = FlitTablePolicy.SPAN,
    ) -> None:
        self.config = config
        self.codec = codec or AddressCodec(config)
        #: Stage-1 group masks (see :func:`repro.core.flit_table.group_or`).
        self.group_masks = group_masks(config.flits_per_row, config.groups_per_row)
        #: The FLIT table: one :data:`Segments` plan per group pattern.
        self.segments: Tuple[Segments, ...] = plan_table(
            config.groups_per_row,
            config.flits_per_group,
            config.flit_bytes,
            policy,
            config.max_request_bytes // config.min_request_bytes,
        )
        self._stage2_cycles = config.builder_stage2_cycles
        self._stage1: Optional[_StageSlot] = None
        self._stage2: Optional[_StageSlot] = None

    # -- occupancy -----------------------------------------------------------

    @property
    def stage1_busy(self) -> bool:
        return self._stage1 is not None

    @property
    def stage2_busy(self) -> bool:
        return self._stage2 is not None

    @property
    def busy(self) -> bool:
        return self._stage1 is not None or self._stage2 is not None

    def can_accept(self) -> bool:
        """Whether stage 1 can latch a new ARQ entry this cycle."""
        return self._stage1 is None

    def pending_requests(self) -> int:
        """Raw requests latched in the pipeline (conservation checks)."""
        return sum(
            len(slot.entry.requests)
            for slot in (self._stage1, self._stage2)
            if slot is not None
        )

    # -- pipeline ------------------------------------------------------------

    def accept(self, entry: ARQEntry) -> None:
        """Latch an ARQ entry into stage 1 (must be non-bypass, non-fence)."""
        if not self.can_accept():
            raise RuntimeError("builder stage 1 is busy")
        if entry.fence or entry.atomic:
            raise ValueError("fences/atomics bypass the request builder")
        self._stage1 = _StageSlot(entry)

    def tick(self, cycle: int) -> List[CoalescedRequest]:
        """Advance the pipeline one cycle; return any packets completed.

        Stage 2 is modelled as a 2-cycle occupancy (lookup, assemble);
        stage 1 results move into stage 2 when it frees up, so the
        steady-state issue rate is one row every ``pop_interval`` cycles.
        """
        out: List[CoalescedRequest] = []

        # Stage 2: count down assembly; emit on completion.
        if self._stage2 is not None:
            self._stage2.remaining -= 1
            if self._stage2.remaining <= 0:
                out.extend(self._emit(self._stage2, cycle))
                self._stage2 = None

        # Stage 1 -> stage 2 transfer (group OR takes the single cycle).
        if self._stage1 is not None and self._stage2 is None:
            slot = self._stage1
            slot.pattern = group_or(slot.entry.bits, self.group_masks)
            slot.remaining = self._stage2_cycles
            self._stage2 = slot
            self._stage1 = None

        return out

    def flush(self, cycle: int) -> List[CoalescedRequest]:
        """Drain both stages immediately (end-of-simulation helper)."""
        out: List[CoalescedRequest] = []
        if self._stage2 is not None:
            out.extend(self._emit(self._stage2, cycle))
            self._stage2 = None
        if self._stage1 is not None:
            slot = self._stage1
            slot.pattern = group_or(slot.entry.bits, self.group_masks)
            out.extend(self._emit(slot, cycle))
            self._stage1 = None
        return out

    # -- quiescence skipping --------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which a tick moves a latch.

        Stage 2 emits on the tick that counts its ``remaining`` down to
        zero, ``now + remaining - 1``; a latched stage 1 moves into stage
        2 on that same tick, or at ``now`` when stage 2 is empty.  In
        between, a tick only counts stage 2 down, which :meth:`skip`
        applies in bulk.  An empty pipeline schedules no wake.
        """
        stage2 = self._stage2
        if stage2 is not None:
            emit = now + stage2.remaining - 1
            return emit if emit > now else now
        return None if self._stage1 is None else now

    def skip(self, start: int, end: int) -> None:
        """Apply ticks [start, end) before the wake: stage 2 counts down."""
        if self._stage2 is not None:
            self._stage2.remaining -= end - start

    # -- packet assembly -----------------------------------------------------

    def build(self, entry: ARQEntry, cycle: int = 0) -> List[CoalescedRequest]:
        """Functional (non-pipelined) build of an entry's packets.

        Produces exactly what the pipeline would emit; used by tests.
        """
        pattern = group_or(entry.bits, self.group_masks)
        return self._emit(_StageSlot(entry, pattern), cycle)

    def _emit(self, slot: _StageSlot, cycle: int) -> List[CoalescedRequest]:
        entry = slot.entry
        return emit_row(
            self.codec, entry.key, self.segments[slot.pattern], entry.requests, cycle
        )


def bypass_packet(
    requests: List[MemoryRequest], config: MACConfig, cycle: int = 0
) -> CoalescedRequest:
    """Build the single-FLIT packet of a B-bit (bypass) row or an atomic.

    Bypass rows skip the builder and go straight to the device as
    minimum-granularity (16 B) transactions (section 4.1.2).  Atomics
    likewise travel as single uncoalesced packets.  ``requests`` holds
    the row's one raw request, whose FLIT-aligned address and type the
    packet takes: the packet is built in one step, with no FLIT-table
    plan.
    """
    req = requests[0]
    rtype = req.rtype
    if rtype is RequestType.FENCE:
        raise ValueError("fences produce no memory packet")
    flit_bytes = config.flit_bytes
    return CoalescedRequest(
        req.addr & -flit_bytes, flit_bytes, rtype, requests, True, cycle
    )
