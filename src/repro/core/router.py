"""Request and response routers of the node front-end (paper sections 3.1, 3.3).

The request router classifies raw requests by home node: requests whose
physical address belongs to the local 3D-stacked memory go to the *Local
Access Queue*; requests for remote devices are forwarded through the
*Global Access Queue*; requests arriving from remote nodes land in the
*Remote Access Queue*.  The response router matches device responses to
their targets and returns data either to local cores or to the
originating remote node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..obs.protocol import StatsMixin
from ..sim import register_wake_protocol
from .packet import CoalescedResponse
from .request import MemoryRequest, Target


class FIFOQueue:
    """Bounded FIFO decoupling cores from the memory subsystem.

    Rejections are observable, not silent: a failed ``push`` increments
    ``rejected`` (aliased as ``drops``) and the queue tracks its
    occupancy high-water mark, so backpressure shows up in stats instead
    of vanishing requests.
    """

    def __init__(self, capacity: int = 64, name: str = "queue") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._q: Deque[MemoryRequest] = deque()
        self.enqueued = 0
        self.rejected = 0
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._q)

    @property
    def full(self) -> bool:
        return len(self._q) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._q

    @property
    def drops(self) -> int:
        """Requests refused because the queue was full (= ``rejected``)."""
        return self.rejected

    def push(self, request: MemoryRequest) -> bool:
        q = self._q
        depth = len(q)
        if depth >= self.capacity:
            self.rejected += 1
            return False
        q.append(request)
        self.enqueued += 1
        if depth >= self.high_water:
            self.high_water = depth + 1
        return True

    def pop(self) -> Optional[MemoryRequest]:
        return self._q.popleft() if self._q else None

    def peek(self) -> Optional[MemoryRequest]:
        return self._q[0] if self._q else None


@dataclass
class RouterStats(StatsMixin):
    local: int = 0
    outbound_remote: int = 0
    inbound_remote: int = 0


@register_wake_protocol
class RequestRouter:
    """Classifies raw requests into local / global / remote queues.

    Args:
        node_id: id of the node this router belongs to.
        home_fn: maps a physical address to its home node id.  The default
            (None) treats every address as local — the single-node setup
            used throughout the paper's evaluation.
        queue_capacity: depth of each FIFO.
    """

    def __init__(
        self,
        node_id: int = 0,
        home_fn: Optional[Callable[[int], int]] = None,
        queue_capacity: int = 64,
    ) -> None:
        self.node_id = node_id
        self.home_fn = home_fn
        self.local_queue = FIFOQueue(queue_capacity, "local")
        self.global_queue = FIFOQueue(queue_capacity, "global")
        self.remote_queue = FIFOQueue(queue_capacity, "remote")
        self.stats = RouterStats()

    def home(self, addr: int) -> int:
        return self.node_id if self.home_fn is None else self.home_fn(addr)

    def route(self, request: MemoryRequest) -> bool:
        """Route one locally generated raw request; False if queue full."""
        if request.is_fence or self.home(request.addr) == self.node_id:
            ok = self.local_queue.push(request)
            if ok:
                self.stats.local += 1
            return ok
        ok = self.global_queue.push(request)
        if ok:
            self.stats.outbound_remote += 1
        return ok

    def receive_remote(self, request: MemoryRequest) -> bool:
        """Accept a raw request arriving from a remote node."""
        ok = self.remote_queue.push(request)
        if ok:
            self.stats.inbound_remote += 1
        return ok

    def next_for_mac(self) -> Optional[MemoryRequest]:
        """Pop the next raw request bound for the local MAC.

        Local traffic has priority; remote traffic is served when the
        local queue is empty (simple two-queue arbitration).
        """
        local = self.local_queue._q
        if local:
            return local.popleft()
        remote = self.remote_queue._q
        return remote.popleft() if remote else None

    def next_outbound(self) -> Optional[MemoryRequest]:
        """Pop the next raw request bound for a remote node."""
        return self.global_queue.pop()

    # -- quiescence skipping --------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Buffered requests must drain every cycle; empty queues never act."""
        if (
            self.local_queue.empty
            and self.remote_queue.empty
            and self.global_queue.empty
        ):
            return None
        return now

    def skip_to(self, target: int) -> None:
        """No per-cycle state: skipping an empty router is a no-op."""


#: Shared empty drain result: callers treat it as read-only.
_EMPTY_DRAIN: Tuple[list, list] = ([], [])


@register_wake_protocol
class ResponseRouter:
    """Directs device responses back to cores or remote nodes (section 3.3).

    Under fault injection the router is also the node's loss-recovery
    point: dispatched packets are registered as *outstanding*, responses
    that never arrive are detected by timeout and handed back for
    re-issue, late duplicates (a delayed original racing its re-issue)
    are suppressed by packet id, and poisoned responses propagate the
    poison mark to every satisfied raw request instead of silently
    delivering bad data.  None of this machinery runs unless
    :meth:`register_dispatch` is used, so the fault-free path is
    untouched.
    """

    def __init__(self, node_id: int = 0, buffer_capacity: int = 256) -> None:
        self.node_id = node_id
        self.buffer_capacity = buffer_capacity
        self._buffer: Deque[CoalescedResponse] = deque()
        #: (tid, tag) -> completion cycle, for load/store queue matching.
        self.completed: Dict[Tuple[int, int], int] = {}
        self.local_deliveries = 0
        self.remote_deliveries = 0
        #: packet_id -> (packet, dispatch cycle); insertion-ordered by
        #: dispatch cycle, so the timeout scan stops at the first young one.
        self.outstanding: Dict[int, Tuple[object, int]] = {}
        self._delivered_ids: set = set()
        self._next_packet_id = 0
        self.timeouts = 0
        self.reissues = 0
        self.duplicates_suppressed = 0
        self.poisoned_deliveries = 0

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def buffered_raw_count(self) -> int:
        """Raw requests inside buffered responses (conservation checks)."""
        return sum(len(resp.request.requests) for resp in self._buffer)

    # -- quiescence skipping --------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Buffered responses must deliver; timeouts are the node's wake.

        The loss-recovery deadline is *not* reported here: the owning
        node folds :meth:`next_timeout_cycle` into its own wake (the
        timeout horizon depends on the device fault config the router
        cannot see).
        """
        return now if self._buffer else None

    def skip_to(self, target: int) -> None:
        """No per-cycle state: skipping an idle router is a no-op."""

    # -- loss recovery (fault injection only) -------------------------------

    def register_dispatch(self, packet, cycle: int) -> int:
        """Track a packet sent to the device; returns its packet id.

        Re-registering a re-issued packet keeps its original id so a
        late response to either copy satisfies (and retires) both.
        """
        if packet.packet_id < 0:
            packet.packet_id = self._next_packet_id
            self._next_packet_id += 1
        self.outstanding.pop(packet.packet_id, None)
        self.outstanding[packet.packet_id] = (packet, cycle)
        return packet.packet_id

    def next_timeout_cycle(self, timeout_cycles: int) -> Optional[int]:
        """Cycle at which the oldest outstanding packet will time out.

        ``None`` when nothing is outstanding.  ``outstanding`` is kept in
        dispatch order, so the first entry is the earliest deadline —
        mirroring the early-break scan of :meth:`check_timeouts`.
        """
        for _packet, dispatched in self.outstanding.values():
            return dispatched + timeout_cycles
        return None

    def check_timeouts(self, now: int, timeout_cycles: int) -> List[object]:
        """Collect outstanding packets older than ``timeout_cycles``.

        The caller re-issues them to the device and re-registers them.
        """
        expired: List[object] = []
        for pid, (packet, dispatched) in list(self.outstanding.items()):
            if now - dispatched < timeout_cycles:
                break  # insertion order == dispatch order
            del self.outstanding[pid]
            self.timeouts += 1
            self.reissues += 1
            expired.append(packet)
        return expired

    # -- response path ------------------------------------------------------

    def receive(self, response: CoalescedResponse) -> None:
        """Store a device response in the response buffer.

        Duplicate responses for an already-delivered packet (possible
        only under fault injection, when a delayed original races its
        re-issued copy) are counted and discarded.
        """
        pid = response.request.packet_id
        if pid >= 0:
            if pid in self._delivered_ids:
                self.duplicates_suppressed += 1
                return
            self._delivered_ids.add(pid)
            self.outstanding.pop(pid, None)
        if len(self._buffer) >= self.buffer_capacity:
            raise RuntimeError("response buffer overflow")
        self._buffer.append(response)

    def drain(
        self,
    ) -> Tuple[List[Tuple[Target, MemoryRequest]], List[Tuple[Target, MemoryRequest]]]:
        """Route every buffered response to its destinations.

        Returns (local, remote) lists of (target, raw request) pairs.
        Raw requests get their ``complete_cycle`` stamped (and the poison
        mark propagated), and local completions are recorded for LSQ
        matching.
        """
        if not self._buffer:
            return _EMPTY_DRAIN  # hot path: most cycles deliver nothing
        local: List[Tuple[Target, MemoryRequest]] = []
        remote: List[Tuple[Target, MemoryRequest]] = []
        while self._buffer:
            resp = self._buffer.popleft()
            if resp.poisoned:
                self.poisoned_deliveries += len(resp.request.targets)
            for target, raw in zip(resp.request.targets, resp.request.requests):
                raw.complete_cycle = resp.complete_cycle
                if resp.poisoned:
                    raw.poisoned = True
                if raw.node == self.node_id:
                    self.completed[(target.tid, target.tag)] = resp.complete_cycle
                    local.append((target, raw))
                    self.local_deliveries += 1
                else:
                    remote.append((target, raw))
                    self.remote_deliveries += 1
        return local, remote
