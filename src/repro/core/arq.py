"""Aggregated Request Queue — the heart of the Raw Request Aggregator.

The ARQ (paper section 4.1, Fig. 5) is a FIFO of entries, each holding one
pending coalesced row access: the extended row key (row number + T bit),
a FLIT map, a bypass (B) bit and the target list of every merged raw
request.  Each entry is associated with a comparator; an incoming raw
request is compared against all pending entries simultaneously and merged
on a key hit, otherwise a new entry is allocated at the tail.

Fences disable the comparators until they drain (section 4.1); the
latency-hiding mechanism bypasses the comparators entirely while more than
half of the queue is free (section 4.1); single-request entries carry the
B bit and skip the request builder (section 4.1.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..obs.tracer import NULL_TRACER
from ..sim import register_wake_protocol
from ..sim.watchdog import sanitize_enabled
from .address import AddressCodec
from .config import MACConfig
from .flit import FlitMap
from .request import MemoryRequest, RequestType, Target


@dataclass(slots=True)
class ARQEntry:
    """One pending (possibly coalesced) row access.

    Attributes:
        key: comparator key — row number with the T bit as its MSB.
        flit_map: bitmap of requested FLITs in the row.
        targets: target info of every merged raw request, in merge order.
        bypass: the B bit — set when the entry can no longer coalesce
            (single-request rows and fences bypass the builder).
        fence: whether this entry is a memory-fence marker.
        atomic: whether this entry is an uncoalescable atomic operation.
        alloc_cycle: cycle at which the entry was allocated (stats).
        requests: the raw requests merged here (kept for response routing
            and conservation checks; hardware would keep only targets).
    """

    key: int
    flit_map: FlitMap
    targets: List[Target] = field(default_factory=list)
    bypass: bool = False
    fence: bool = False
    atomic: bool = False
    alloc_cycle: int = 0
    requests: List[MemoryRequest] = field(default_factory=list)

    @property
    def target_count(self) -> int:
        return len(self.targets)


@register_wake_protocol
class AggregatedRequestQueue:
    """FIFO of ARQEntry with associative merge, fences and bypass.

    This class models the queue *structure*; the cycle-by-cycle accept/pop
    cadence lives in :class:`repro.core.aggregator.RawRequestAggregator`.

    Comparator tie-break: when several in-flight entries match a
    candidate key (possible via latency-hiding bypass fills, which
    allocate without consulting the comparators, and via capacity
    evictions), the *oldest* mergeable entry wins — a hardware priority
    encoder over the comparator hit vector resolves towards the head of
    the FIFO.  The ``_index`` dict therefore always maps a key to the
    oldest mergeable same-epoch entry, and :meth:`_unindex` promotes the
    next-oldest duplicate when the winner leaves.  :meth:`match_oldest`
    encodes the same rule as a scan over all entries; under
    ``REPRO_SIM_CHECK=1`` every dict hit is cross-validated against it.
    """

    def __init__(
        self, config: MACConfig, codec: Optional[AddressCodec] = None, tracer=NULL_TRACER
    ):
        self.config = config
        self.codec = codec or AddressCodec(config)
        self.tracer = tracer
        # Config constants read on every push/pop, bound once.
        self._capacity = config.arq_entries
        self._target_capacity = config.target_capacity
        self._bypass_threshold = config.bypass_threshold
        self._latency_hiding = config.latency_hiding
        self._nflits = config.flits_per_row
        self._entries: Deque[ARQEntry] = deque()
        # Row-key index for O(1) comparator emulation.  Hardware compares
        # all entries in parallel; a dict gives identical semantics.  Only
        # mergeable entries (comparators enabled, not full, not bypassed)
        # are indexed.
        self._index: Dict[int, ARQEntry] = {}
        # Entries allocated *before* the youngest pending fence.  A fence
        # demotes the whole live index here: merging into a pre-fence
        # entry would reorder across the fence, so a key hit on this side
        # counts as ``fence_blocked_merges`` instead.  Requests arriving
        # after the fence form a new epoch in ``_index`` and may merge
        # among themselves — exactly what the window engine does.
        self._fenced_index: Dict[int, ARQEntry] = {}
        # Comparators disabled while a fence is pending (section 4.1).
        self._fence_pending = 0
        # Latency-hiding bypass (section 4.1) is edge-triggered: when the
        # free-entry counter *reaches* a value N greater than half the
        # ARQ, the N following raw requests skip the comparators and fill
        # free entries directly; the mechanism re-arms once the queue has
        # been busy (free <= threshold) again.
        self._bypass_budget = 0
        self._bypass_armed = True
        # Keys for which more than one in-flight entry may match (bypass
        # fills / fence demotes); drives the oldest-wins promotion in
        # :meth:`_unindex` without scanning the queue on every pop.
        self._dup_keys: set = set()
        # Cross-validate dict hits against the all-entries comparator
        # scan (oldest-wins) when the sanitizer is armed.
        self._check_match = sanitize_enabled()
        # Stats hooks.
        self.merges = 0
        self.allocations = 0
        self.fence_blocked_merges = 0
        self.bypass_fills = 0

    # -- capacity ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_entries(self) -> int:
        """The free-entry counter driving latency hiding (section 4.1)."""
        return self._capacity - len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self._capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    @property
    def comparators_enabled(self) -> bool:
        return self._fence_pending == 0

    def entries(self) -> List[ARQEntry]:
        """Snapshot of pending entries in FIFO order (oldest first)."""
        return list(self._entries)

    # -- insertion -------------------------------------------------------------

    def push(self, request: MemoryRequest, cycle: int = 0) -> bool:
        """Insert one raw request; returns False when the queue is full.

        Implements the full section-4.1 semantics: associative merge on a
        row-key hit, fence handling, atomic bypass, target-capacity limits
        and the latency-hiding comparator bypass.
        """
        rtype = request.rtype
        if rtype is RequestType.FENCE:
            return self._push_fence(request, cycle)
        key, flit = self.codec.locate(request.addr, rtype)
        if rtype is RequestType.ATOMIC:
            return self._push_atomic(request, flit, cycle)

        if self._latency_hiding:
            free = self._capacity - len(self._entries)
            if free <= self._bypass_threshold:
                self._bypass_armed = True
            elif self._bypass_armed and self._bypass_budget == 0:
                # Counter crossed the threshold: burst-fill the N free
                # entries with the N following requests (section 4.1).
                self._bypass_armed = False
                self._bypass_budget = free
            if self._bypass_budget > 0:
                self._bypass_budget -= 1
                self.bypass_fills += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "arq", "bypass_fill", cycle, key=key, free=self.free_entries
                    )
                return self._allocate(request, key, flit, cycle)

        # Only same-epoch entries (allocated since the youngest fence) are
        # mergeable; a key hit on the pre-fence side is exactly the merge
        # the fence forbids.
        hit = self._index.get(key)
        if self._check_match and self.match_oldest(key) is not hit:
            from ..sim.watchdog import InvariantViolation

            raise InvariantViolation(
                cycle,
                f"comparator divergence for key {key}: indexed hit does not "
                "match the oldest-wins comparator scan",
            )
        if hit is not None:
            self._merge(hit, request, flit, cycle)
            return True
        if self._fence_pending and key in self._fenced_index:
            self.fence_blocked_merges += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "arq", "fence_blocked", cycle, key=key,
                    pending_fences=self._fence_pending,
                )

        return self._allocate(request, key, flit, cycle)

    def _merge(
        self, entry: ARQEntry, request: MemoryRequest, flit: int, cycle: int = 0
    ) -> None:
        entry.flit_map.set(flit)
        targets = entry.targets
        targets.append(Target(request.tid, request.tag, flit))
        entry.requests.append(request)
        entry.bypass = False  # >1 targets: goes through the builder
        self.merges += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "arq", "merge", cycle, key=entry.key, targets=entry.target_count
            )
        if len(targets) >= self._target_capacity:
            # Entry full: stop indexing it so further requests allocate anew.
            self._unindex(entry)

    def _allocate(
        self, request: MemoryRequest, key: int, flit: int, cycle: int
    ) -> bool:
        entries = self._entries
        if len(entries) >= self._capacity:
            return False
        fmap = FlitMap(self._nflits)
        fmap.set(flit)
        entry = ARQEntry(
            key=key,
            flit_map=fmap,
            targets=[Target(request.tid, request.tag, flit)],
            bypass=True,  # single request so far -> B bit set
            alloc_cycle=cycle,
            requests=[request],
        )
        entries.append(entry)
        # A key may already be indexed (a bypass-filled or capacity-evicted
        # duplicate); the *oldest* mergeable entry keeps the comparator —
        # the priority encoder resolves towards the FIFO head — so a new
        # allocation never steals an existing key.  The duplicate is
        # remembered and promoted when the current winner leaves.
        if key in self._index:
            self._dup_keys.add(key)
        else:
            self._index[key] = entry
        self.allocations += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "arq", "alloc", cycle, key=key, occupancy=len(entries)
            )
        return True

    def _push_fence(self, request: MemoryRequest, cycle: int) -> bool:
        if self.full:
            return False
        entry = ARQEntry(
            key=-1,
            flit_map=FlitMap(self._nflits),
            bypass=True,
            fence=True,
            alloc_cycle=cycle,
            requests=[request],
        )
        self._entries.append(entry)
        self._fence_pending += 1
        # Start a new merge epoch: everything live moves to the blocked
        # side of the fence.  Oldest-wins holds across demotes too: a key
        # already fenced keeps its (older) entry, and the demoted
        # duplicate is promoted when it leaves.
        for key, demoted in self._index.items():
            if key in self._fenced_index:
                self._dup_keys.add(key)
            else:
                self._fenced_index[key] = demoted
        self._index.clear()
        if self.tracer.enabled:
            self.tracer.emit(
                "arq", "fence", cycle, pending_fences=self._fence_pending
            )
        return True

    def _push_atomic(self, request: MemoryRequest, flit: int, cycle: int) -> bool:
        if self.full:
            return False
        fmap = FlitMap(self._nflits)
        fmap.set(flit)
        entry = ARQEntry(
            key=-1,
            flit_map=fmap,
            targets=[Target(request.tid, request.tag, flit)],
            bypass=True,
            atomic=True,
            alloc_cycle=cycle,
            requests=[request],
        )
        self._entries.append(entry)
        return True

    # -- removal ---------------------------------------------------------------

    def pop(self) -> Optional[ARQEntry]:
        """Remove and return the oldest entry (None when empty)."""
        if not self._entries:
            return None
        # A pop while the queue is busy re-arms the latency-hiding
        # trigger: the free-entry counter is about to climb back towards
        # the threshold from the busy side.
        if self._capacity - len(self._entries) <= self._bypass_threshold:
            self._bypass_armed = True
        entry = self._entries.popleft()
        if entry.fence:
            self._fence_pending -= 1
            assert self._fence_pending >= 0, "fence counter underflow"
            if self._fence_pending == 0:
                # Last fence drained; any leftover demoted keys are stale
                # (their entries popped before the fence, FIFO order).
                self._fenced_index.clear()
        else:
            self._unindex(entry)
        return entry

    def peek(self) -> Optional[ARQEntry]:
        return self._entries[0] if self._entries else None

    def _unindex(self, entry: ARQEntry) -> None:
        key = entry.key
        was_indexed = False
        if self._index.get(key) is entry:
            del self._index[key]
            was_indexed = True
        if self._fenced_index.get(key) is entry:
            del self._fenced_index[key]
            was_indexed = True
        if was_indexed and key in self._dup_keys:
            self._reindex_key(key)

    def _reindex_key(self, key: int) -> None:
        """Canonicalize the comparator winner for ``key`` (oldest-wins).

        Called only when a known-duplicated key loses its indexed winner:
        rescan the FIFO, give the oldest mergeable match on each side of
        the youngest fence its comparator back, and retire the duplicate
        marker once at most one match remains.
        """
        current: Optional[ARQEntry] = None  # oldest match since last fence
        fenced: Optional[ARQEntry] = None  # oldest match before it
        matches = 0
        cap = self._target_capacity
        for e in self._entries:
            if e.fence:
                if fenced is None:
                    fenced = current
                current = None
                continue
            if e.key != key or e.atomic or e.target_count >= cap:
                continue
            matches += 1
            if current is None:
                current = e
        if self._fence_pending:
            if fenced is None:
                self._fenced_index.pop(key, None)
            else:
                self._fenced_index[key] = fenced
        if current is None:
            self._index.pop(key, None)
        else:
            self._index[key] = current
        if matches <= 1:
            self._dup_keys.discard(key)

    # -- all-entries comparator match ---------------------------------------

    def comparator_view(self) -> List[Optional[int]]:
        """Comparator-visible key per entry, oldest first.

        ``None`` masks slots that cannot merge: fences, atomics, entries
        at target capacity, and — because merging across a fence would
        reorder — every entry allocated before the youngest pending
        fence.  This is the input :meth:`match_oldest` scans.
        """
        view: List[Optional[int]] = []
        cap = self._target_capacity
        for e in self._entries:
            if e.fence:
                # Everything before the fence is unmergeable this epoch.
                view = [None] * (len(view) + 1)
                continue
            if e.atomic or e.target_count >= cap:
                view.append(None)
            else:
                view.append(e.key)
        return view

    def match_oldest(self, key: int) -> Optional[ARQEntry]:
        """All-entries comparator match, oldest hit wins (hardware form).

        Semantically identical to the ``_index`` dict lookup (the
        equivalence is property-tested and sanitizer-checked).
        """
        for i, k in enumerate(self.comparator_view()):
            if k == key:
                return self._entries[i]
        return None

    # -- quiescence skipping -------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Buffered entries act on the pop cadence; an empty queue never.

        The ARQ is a passive structure — its clocking (accept rate, pop
        cadence) lives in the aggregator — so its own wake is simply
        "now" while occupied and "no self-scheduled wake" when empty.
        """
        return None if not self._entries else now

    def skip_to(self, target: int) -> None:
        """No per-cycle state: skipping an empty ARQ is a no-op."""

    # -- introspection ------------------------------------------------------

    def pending_targets(self) -> int:
        """Total raw requests currently buffered."""
        return sum(e.target_count for e in self._entries)
