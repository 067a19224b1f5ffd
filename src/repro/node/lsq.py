"""Load/store queue of one in-order core.

Pending memory operations wait here for their response; the response
router matches completions by (tid, tag) (paper section 3.3).  The LSQ
bounds each core's outstanding requests, which is what ultimately
throttles a core when the memory system backs up.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.request import MemoryRequest


class LoadStoreQueue:
    """Bounded table of in-flight memory operations for one core."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("LSQ needs at least one slot")
        self.capacity = capacity
        self._pending: Dict[Tuple[int, int], MemoryRequest] = {}
        self.inserted = 0
        self.completed = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._pending

    def insert(self, request: MemoryRequest) -> bool:
        """Track an issued request; False when the queue is full."""
        pending = self._pending
        if len(pending) >= self.capacity:
            return False
        key = (request.tid, request.tag)
        if key in pending:
            raise ValueError(f"duplicate in-flight (tid={request.tid}, tag={request.tag})")
        pending[key] = request
        self.inserted += 1
        return True

    def complete(self, tid: int, tag: int, cycle: int) -> Optional[MemoryRequest]:
        """Retire the matching request; returns it (or None if unknown)."""
        req = self._pending.pop((tid, tag), None)
        if req is not None:
            req.complete_cycle = cycle
            self.completed += 1
        return req

    def oldest(self) -> Optional[MemoryRequest]:
        if not self._pending:
            return None
        return min(self._pending.values(), key=lambda r: r.issue_cycle)
