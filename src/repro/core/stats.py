"""MAC statistics counters shared by both simulation engines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from ..obs.protocol import StatsMixin
from .packet import CONTROL_BYTES_PER_ACCESS, CoalescedRequest
from .request import RequestType


@dataclass(slots=True)
class MACStats(StatsMixin):
    """Counters accumulated while requests flow through the MAC.

    These feed every evaluation metric of section 5.3: coalescing
    efficiency (Fig. 10/11), bank conflicts (Fig. 12, together with the
    device stats), bandwidth efficiency/saving (Figs. 13/14) and targets
    per entry (Fig. 15).
    """

    SNAPSHOT_DERIVED = (
        "coalescing_efficiency",
        "avg_targets_per_packet",
        "coalesced_bandwidth_efficiency",
    )

    raw_requests: int = 0
    raw_loads: int = 0
    raw_stores: int = 0
    raw_fences: int = 0
    raw_atomics: int = 0
    coalesced_packets: int = 0
    bypassed_packets: int = 0
    merged_requests: int = 0
    #: Histogram: emitted packet size in bytes -> count.
    packet_sizes: Dict[int, int] = field(default_factory=dict)
    #: Per-packet target counts (Fig. 15 distribution).
    targets_per_packet: List[int] = field(default_factory=list)
    payload_bytes: int = 0
    stall_cycles: int = 0
    total_cycles: int = 0

    # -- recording ------------------------------------------------------------

    def record_raw(self, rtype) -> None:
        self.raw_requests += 1
        if rtype is RequestType.LOAD:
            self.raw_loads += 1
        elif rtype is RequestType.STORE:
            self.raw_stores += 1
        elif rtype is RequestType.FENCE:
            self.raw_fences += 1
        else:
            self.raw_atomics += 1

    def record_packet(self, packet: CoalescedRequest) -> None:
        raw = len(packet.requests)
        size = packet.size
        self.coalesced_packets += 1
        if packet.bypassed:
            self.bypassed_packets += 1
        self.merged_requests += raw
        self.packet_sizes[size] = self.packet_sizes.get(size, 0) + 1
        self.targets_per_packet.append(raw)
        self.payload_bytes += size

    # -- derived metrics -------------------------------------------------------

    @property
    def memory_raw_requests(self) -> int:
        """Raw requests that actually address memory (fences excluded)."""
        return self.raw_requests - self.raw_fences

    @property
    def coalescing_efficiency(self) -> float:
        """Fraction of raw requests eliminated by coalescing (Eq. 3).

        See DESIGN.md section 3 on the reduction-fraction reading of the
        paper's Eq. 3.  A fence-only/atomic-only stream that still emitted
        packets has no defined efficiency — ``nan``, never ``0.0``, so a
        sweep cannot rank the empty cell as a valid best point.
        """
        if self.memory_raw_requests == 0:
            return math.nan if self.coalesced_packets else 0.0
        return 1.0 - self.coalesced_packets / self.memory_raw_requests

    @property
    def avg_targets_per_packet(self) -> float:
        """Average merged raw requests per emitted packet (Fig. 15)."""
        if not self.targets_per_packet:
            return 0.0
        return sum(self.targets_per_packet) / len(self.targets_per_packet)

    @property
    def max_targets_per_packet(self) -> int:
        return max(self.targets_per_packet, default=0)

    @property
    def coalesced_wire_bytes(self) -> int:
        """Link bytes moved with MAC: payload + 32 B control per packet."""
        return self.payload_bytes + CONTROL_BYTES_PER_ACCESS * self.coalesced_packets

    def raw_wire_bytes(self, flit_bytes: int = 16) -> int:
        """Link bytes if every raw request went out as one 16 B packet."""
        return (flit_bytes + CONTROL_BYTES_PER_ACCESS) * self.memory_raw_requests

    @property
    def coalesced_bandwidth_efficiency(self) -> float:
        """Payload fraction of the coalesced traffic (Eq. 1, Fig. 13)."""
        wire = self.coalesced_wire_bytes
        return self.payload_bytes / wire if wire else 0.0

    def bandwidth_saved_bytes(self) -> int:
        """Control bytes saved by aggregation (Fig. 14's metric).

        The paper counts the *control* traffic eliminated: every raw
        request avoided saves its 32 B header/tail pair, so the saving is
        32 B x (raw requests - packets).  Overfetched payload is not
        charged — consistent with Eq. 1, which counts all payload as
        useful.  See :meth:`wire_saved_bytes` for the net-wire view.
        """
        return CONTROL_BYTES_PER_ACCESS * (
            self.memory_raw_requests - self.coalesced_packets
        )

    def wire_saved_bytes(self, flit_bytes: int = 16) -> int:
        """Net link bytes saved vs. raw dispatch (charges overfetch).

        Unlike Fig. 14's control-only metric this can go negative for
        barely-coalescable traffic, where the 64 B minimum packet ships
        more payload than the requests demanded.
        """
        return self.raw_wire_bytes(flit_bytes) - self.coalesced_wire_bytes
