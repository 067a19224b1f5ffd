"""Unit tests for the Aggregated Request Queue (section 4.1)."""


from repro.core.arq import AggregatedRequestQueue
from repro.core.config import MACConfig
from repro.core.request import MemoryRequest, RequestType


def req(addr, rtype=RequestType.LOAD, tid=0, tag=0):
    return MemoryRequest(addr=addr, rtype=rtype, tid=tid, tag=tag)


def make_arq(**cfg_kwargs):
    defaults = dict(latency_hiding=False)
    defaults.update(cfg_kwargs)
    return AggregatedRequestQueue(MACConfig(**defaults))


class TestMerging:
    def test_same_row_merges(self):
        arq = make_arq()
        arq.push(req(0xA60, tag=1))  # row 0xA, FLIT 6
        arq.push(req(0xA80, tag=2))  # row 0xA, FLIT 8
        assert len(arq) == 1
        entry = arq.peek()
        assert entry.target_count == 2
        assert entry.bits == (1 << 6) | (1 << 8)

    def test_paper_fig7_example(self):
        """Requests 1,2,4 (loads, row 0xA) merge; request 3 (store) doesn't."""
        arq = make_arq()
        arq.push(req(0xA60, tag=1))                        # load row A flit 6
        arq.push(req(0xA80, tag=2))                        # load row A flit 8
        arq.push(req(0xA90, rtype=RequestType.STORE, tag=3))  # store row A
        arq.push(req(0xA90, tag=4))                        # load row A flit 9
        assert len(arq) == 2
        load_entry, store_entry = arq.entries()
        assert load_entry.target_count == 3
        assert load_entry.bits == 0b0000001101000000
        assert store_entry.target_count == 1
        assert store_entry.bypass  # B bit set: cannot coalesce further

    def test_different_rows_allocate(self):
        arq = make_arq()
        arq.push(req(0xA00))
        arq.push(req(0xB00))
        assert len(arq) == 2

    def test_loads_and_stores_never_merge(self):
        arq = make_arq()
        arq.push(req(0xA00, rtype=RequestType.LOAD))
        arq.push(req(0xA00, rtype=RequestType.STORE))
        assert len(arq) == 2

    def test_merge_clears_bypass_bit(self):
        arq = make_arq()
        arq.push(req(0xA00))
        assert arq.peek().bypass
        arq.push(req(0xA10))
        assert not arq.peek().bypass

    def test_merge_preserves_order_of_targets(self):
        arq = make_arq()
        for i, f in enumerate((6, 8, 9)):
            arq.push(req(0xA00 | (f << 4), tag=i))
        assert [r.tag for r in arq.peek().requests] == [0, 1, 2]


class TestCapacity:
    def test_full_queue_rejects(self):
        arq = make_arq(arq_entries=2)
        assert arq.push(req(0x100))
        assert arq.push(req(0x200))
        assert not arq.push(req(0x300))
        assert arq.full

    def test_merge_into_full_queue_succeeds(self):
        # Merges need no free entry.
        arq = make_arq(arq_entries=2)
        arq.push(req(0x100))
        arq.push(req(0x200))
        assert arq.push(req(0x110))
        assert arq.pending_targets() == 3

    def test_target_capacity_limits_merges(self):
        """Section 5.3.3: a 64 B entry holds at most 12 targets."""
        arq = make_arq()
        for i in range(14):
            arq.push(req(0xA00 | ((i % 16) << 4), tag=i))
        entries = arq.entries()
        assert entries[0].target_count == 12
        assert len(arq) == 2  # 13th request opened a fresh entry

    def test_free_entries_counter(self):
        arq = make_arq()
        assert arq.free_entries == 32
        arq.push(req(0x100))
        assert arq.free_entries == 31


class TestFences:
    def test_fence_disables_merging(self):
        arq = make_arq()
        arq.push(req(0xA00, tag=1))
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        arq.push(req(0xA10, tag=2))  # same row, but fence pending
        assert len(arq) == 3
        assert arq.fence_blocked_merges == 1

    def test_merging_resumes_after_fence_pops(self):
        arq = make_arq()
        arq.push(req(0xA00, tag=1))
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        arq.push(req(0xB00, tag=2))
        # Drain up to and including the fence.
        arq.pop()  # row A entry
        arq.pop()  # fence
        assert arq.comparators_enabled
        arq.push(req(0xB10, tag=3))
        assert arq.pending_targets() == 2
        assert len(arq) == 1

    def test_fence_in_full_queue_rejected(self):
        arq = make_arq(arq_entries=1)
        arq.push(req(0x100))
        assert not arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))

    def test_nested_fences(self):
        arq = make_arq()
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        arq.pop()
        assert not arq.comparators_enabled  # second fence still pending
        arq.pop()
        assert arq.comparators_enabled

    def test_same_epoch_requests_merge_behind_fence(self):
        # A fence only separates *epochs*: two requests that both arrived
        # after the fence are on the same side of it and may merge with
        # each other while the fence is still pending.
        arq = make_arq()
        arq.push(req(0xA00, tag=1))
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        arq.push(req(0xA10, tag=2))  # blocked from the pre-fence entry
        arq.push(req(0xA20, tag=3))  # merges with tag=2's entry
        assert len(arq) == 3  # pre-fence row A, fence, post-fence row A
        assert arq.fence_blocked_merges == 1
        assert arq.entries()[-1].target_count == 2

    def test_blocked_counting_stops_after_fence_drains(self):
        # Regression: with back-to-back fences the blocked-merge counter
        # kept ticking for rows whose fenced entry (or fence) had already
        # left the queue — i.e. for merges no fence actually prevented.
        arq = make_arq()
        arq.push(req(0xA00, tag=1))
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        arq.push(req(0xB00, tag=2))
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        arq.pop()  # row A entry
        arq.pop()  # fence 1 (fence 2 still pending)
        # Row A's fenced entry is gone; a fresh row-A request has nothing
        # to illegally merge with, so it allocates without being counted.
        assert arq.push(req(0xA10, tag=3))
        assert arq.fence_blocked_merges == 0
        # Row B *is* still resident on the far side of fence 2: blocked.
        arq.push(req(0xB10, tag=4))
        assert arq.fence_blocked_merges == 1
        # Drain row B and fence 2; the fenced epoch is over, so same-row
        # pushes merge freely again and the counter stays put.
        while arq._fence_pending:
            arq.pop()
        arq.push(req(0xB20, tag=5))
        assert arq.fence_blocked_merges == 1
        assert arq.entries()[-1].target_count == 2  # tag 4 + tag 5 merged


class TestAtomics:
    def test_atomic_never_merges(self):
        arq = make_arq()
        arq.push(req(0xA00))
        arq.push(MemoryRequest(addr=0xA10, rtype=RequestType.ATOMIC))
        arq.push(req(0xA20))
        entries = arq.entries()
        assert len(entries) == 2  # load entry merged; atomic separate
        assert entries[1].atomic and entries[1].bypass

    def test_atomic_does_not_become_merge_target(self):
        arq = make_arq()
        arq.push(MemoryRequest(addr=0xA10, rtype=RequestType.ATOMIC))
        arq.push(req(0xA20))
        assert len(arq) == 2


class TestPop:
    def test_fifo_order(self):
        arq = make_arq()
        arq.push(req(0x100))
        arq.push(req(0x200))
        assert arq.pop().key == AggregatedRequestQueue(
            MACConfig()
        ).codec.arq_key(req(0x100))
        assert len(arq) == 1

    def test_pop_empty_returns_none(self):
        assert make_arq().pop() is None

    def test_popped_entry_not_merge_target(self):
        arq = make_arq()
        arq.push(req(0xA00, tag=1))
        arq.pop()
        arq.push(req(0xA10, tag=2))
        assert len(arq) == 1
        assert arq.peek().target_count == 1


class TestLatencyHiding:
    def test_burst_fill_skips_comparators(self):
        """Edge-triggered: the first burst fills free entries directly."""
        arq = AggregatedRequestQueue(MACConfig(latency_hiding=True))
        arq.push(req(0xA00, tag=1))
        arq.push(req(0xA10, tag=2))  # same row — but bypass budget active
        assert len(arq) == 2
        assert arq.bypass_fills == 2

    def test_rearm_requires_busy_queue(self):
        cfg = MACConfig(arq_entries=4, latency_hiding=True)
        arq = AggregatedRequestQueue(cfg)
        # Initial burst: budget = 4 (all free).
        for i in range(4):
            arq.push(req(0x100 * (i + 1)))
        assert arq.bypass_fills == 4
        # Queue now full -> threshold crossed -> mechanism re-armed, but
        # merges into pending entries work again.
        arq.pop()
        arq.pop()
        arq.pop()  # free = 3 > threshold 2, fires a fresh burst
        arq.push(req(0x500))
        assert arq.bypass_fills == 5

    def test_comparators_used_when_budget_exhausted(self):
        cfg = MACConfig(arq_entries=4, latency_hiding=True)
        arq = AggregatedRequestQueue(cfg)
        for i in range(4):
            arq.push(req(0x100 * (i + 1), tag=i))
        # Budget exhausted and queue full: this merges.
        arq.push(req(0x110, tag=9))
        assert arq.pending_targets() == 5
        assert len(arq) == 4


class TestConservation:
    def test_every_pushed_request_is_in_exactly_one_entry(self):
        import random

        rng = random.Random(7)
        arq = make_arq()
        pushed = []
        popped_targets = 0
        for i in range(500):
            r = req(rng.randrange(64) << 8 | rng.randrange(16) << 4, tag=i % 65536,
                    rtype=rng.choice((RequestType.LOAD, RequestType.STORE)))
            if arq.push(r, cycle=i):
                pushed.append(r)
            if arq.full or rng.random() < 0.3:
                e = arq.pop()
                if e is not None:
                    popped_targets += e.target_count
        while not arq.empty:
            popped_targets += arq.pop().target_count
        assert popped_targets == len(pushed)
