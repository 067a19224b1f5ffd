"""Two-stage pipelined Request Builder (paper section 4.2, Fig. 8).

Stage 1 (1 cycle) OR-reduces the 16-bit FLIT map of the entry popped from
the ARQ into 4 group bits, one per 64 B chunk of the 256 B row.  Stage 2
(2 cycles: table lookup + assembly) consults the FLIT table and emits the
coalesced transaction(s).  The pipeline therefore issues at a steady rate
of one packet every 2 cycles once primed (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim import register_wake_protocol
from .address import AddressCodec
from .arq import ARQEntry
from .config import MACConfig
from .flit_table import FlitTable, FlitTablePolicy
from .packet import CoalescedRequest
from .request import RequestType


@dataclass(slots=True)
class _StageSlot:
    """Pipeline latch between/inside builder stages."""

    entry: ARQEntry
    pattern: int = 0
    remaining: int = 0


@register_wake_protocol
class RequestBuilder:
    """Cycle-level model of the two-stage pipelined request builder.

    Stage 1's OR-reduction goes through :meth:`FlitMap.group_bits
    <repro.core.flit.FlitMap.group_bits>`.
    """

    def __init__(
        self,
        config: MACConfig,
        codec: Optional[AddressCodec] = None,
        policy: FlitTablePolicy = FlitTablePolicy.SPAN,
    ) -> None:
        self.config = config
        self.codec = codec or AddressCodec(config)
        self.table = FlitTable(
            groups=config.groups_per_row,
            chunk_bytes=config.min_request_bytes,
            policy=policy,
            max_chunks=config.max_request_bytes // config.min_request_bytes,
        )
        # Geometry constants read per built row, bound once.
        self._groups = config.groups_per_row
        self._flits_per_group = config.flits_per_group
        self._stage2_cycles = config.builder_stage2_cycles
        self._stage1: Optional[_StageSlot] = None
        self._stage2: Optional[_StageSlot] = None
        self.built_packets = 0
        self.built_rows = 0

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
            slot.pattern = slot.entry.flit_map.group_bits(self._groups)
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
            slot.pattern = slot.entry.flit_map.group_bits(self._groups)
            out.extend(self._emit(slot, cycle))
            self._stage1 = None
        return out

    # -- quiescence skipping --------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """A primed pipeline moves every cycle; an empty one never.

        Stage occupancy changes each tick while anything is latched
        (stage 2 counts down, stage 1 transfers), so a busy builder pins
        its owner to lockstep; empty, it schedules no wake of its own.
        """
        return now if self.busy else None

    def skip_to(self, target: int) -> None:
        """No per-cycle state outside the stage latches: idle skip is free."""

    # -- packet assembly -----------------------------------------------------

    def build(self, entry: ARQEntry, cycle: int = 0) -> List[CoalescedRequest]:
        """Functional (non-pipelined) build of an entry's packets.

        Used by the fast window engine and by tests; produces exactly what
        the pipeline would emit.
        """
        pattern = entry.flit_map.group_bits(self._groups)
        return self._emit(_StageSlot(entry, pattern), cycle)

    def _emit(self, slot: _StageSlot, cycle: int) -> List[CoalescedRequest]:
        entry = slot.entry
        codec = self.codec
        row_base = codec.key_row(entry.key) << codec.row_shift
        rtype = codec.key_type(entry.key)
        segments = self.table.lookup(slot.pattern)
        packets: List[CoalescedRequest] = []
        chunk = self.config.min_request_bytes
        per = self._flits_per_group
        for seg in segments:
            seg_lo = seg.offset * per
            seg_hi = (seg.offset + seg.length) * per
            idx = [
                i
                for i, t in enumerate(entry.targets)
                if seg_lo <= t.flit_id < seg_hi
            ]
            packets.append(
                CoalescedRequest(
                    addr=row_base + seg.offset * chunk,
                    size=seg.length * chunk,
                    rtype=rtype,
                    targets=[entry.targets[i] for i in idx],
                    requests=[entry.requests[i] for i in idx],
                    issue_cycle=cycle,
                )
            )
        self.built_packets += len(packets)
        self.built_rows += 1
        return packets


def bypass_packet(
    entry: ARQEntry, codec: AddressCodec, config: MACConfig, cycle: int = 0
) -> CoalescedRequest:
    """Build the single-FLIT packet for a B-bit (bypass) entry.

    Bypass entries skip the builder and go straight to the device as
    minimum-granularity (16 B) transactions (section 4.1.2).  Atomics
    likewise travel as single uncoalesced packets.
    """
    if entry.fence:
        raise ValueError("fences produce no memory packet")
    req = entry.requests[0]
    flit = entry.targets[0].flit_id
    if entry.atomic:
        rtype = RequestType.ATOMIC
        addr = codec.row_base(req.addr) + flit * config.flit_bytes
    else:
        rtype = codec.key_type(entry.key)
        addr = (codec.key_row(entry.key) << codec.row_shift) + flit * config.flit_bytes
    return CoalescedRequest(
        addr=addr,
        size=config.flit_bytes,
        rtype=rtype,
        targets=list(entry.targets),
        requests=list(entry.requests),
        bypassed=True,
        issue_cycle=cycle,
    )
