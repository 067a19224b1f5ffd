"""Comparator tie-break: the *oldest* mergeable entry wins (regression).

Latency-hiding bypass fills allocate without consulting the comparators,
so several in-flight entries can share one row key.  Hardware resolves a
multi-hit with a priority encoder towards the FIFO head; the model's
``_index`` dict must therefore always point at the oldest mergeable
entry, promote the next-oldest duplicate when the winner leaves, and the
all-entries comparator scan must encode the identical rule.  Before
the fix, a later allocation could steal the key from an older entry,
silently changing merge choices between the dict and scan paths.
"""

from repro.core.arq import AggregatedRequestQueue
from repro.core.config import MACConfig
from repro.core.request import MemoryRequest, RequestType


def load(row, flit=0, tag=0, tid=0):
    return MemoryRequest(
        addr=(row << 8) | (flit << 4),
        rtype=RequestType.LOAD,
        tid=tid,
        tag=tag,
        core=tid,
    )


def fence(tag=0):
    return MemoryRequest(addr=0, rtype=RequestType.FENCE, tid=0, tag=tag)


def fill_with_bypass_duplicates(arq_entries=8):
    """Exhaust the bypass burst with two same-key fills up front.

    A fresh queue arms a burst of ``arq_entries`` bypass fills, so the
    first two pushes of row 0 become *separate* entries (the duplicate),
    and the remaining six distinct rows drain the budget.
    """
    q = AggregatedRequestQueue(MACConfig(arq_entries=arq_entries))
    assert q.push(load(0, flit=0, tag=0))
    assert q.push(load(0, flit=1, tag=1))
    for i in range(arq_entries - 2):
        assert q.push(load(100 + i, tag=10 + i))
    assert q.bypass_fills == arq_entries
    assert len(q) == arq_entries and q.full
    return q


class TestOldestWins:
    def test_bypass_duplicates_merge_into_the_oldest_entry(self):
        q = fill_with_bypass_duplicates()
        first, second = q.entries()[0], q.entries()[1]
        assert first.key == second.key  # the bypass-made duplicate

        # Queue is full, but a key hit still merges — into the head copy.
        assert q.push(load(0, flit=2, tag=2))
        assert first.target_count == 2
        assert second.target_count == 1
        assert q.merges == 1

    def test_duplicate_is_promoted_when_the_winner_pops(self):
        q = fill_with_bypass_duplicates()
        second = q.entries()[1]
        winner = q.pop()
        assert winner is not second and winner.key == second.key

        # The surviving copy inherits the comparator: same-key pushes
        # now merge into it (free=1 <= threshold, so no new burst).
        assert q.push(load(0, flit=3, tag=3))
        assert second.target_count == 2
        assert q.match_oldest(second.key) is second

    def test_match_oldest_tracks_the_index_throughout(self):
        q = fill_with_bypass_duplicates()
        key = q.entries()[0].key
        assert q.match_oldest(key) is q.entries()[0]
        q.pop()
        assert q.match_oldest(key) is q.entries()[0]
        # Every live key agrees between dict and all-entries scan.
        for e in q.entries():
            assert q.match_oldest(e.key) is q._index[e.key]

    def test_entry_full_hands_the_key_to_a_fresh_allocation(self):
        cfg = MACConfig(arq_entries=8, latency_hiding=False)
        q = AggregatedRequestQueue(cfg)
        for t in range(cfg.target_capacity):
            assert q.push(load(0, flit=t % 16, tag=t))
        full_entry = q.entries()[0]
        assert full_entry.target_count == cfg.target_capacity
        assert q.match_oldest(full_entry.key) is None  # masked at capacity

        # The next same-key push cannot merge; it allocates a new entry
        # which then owns the comparator (no stale hit on the full one).
        assert q.push(load(0, flit=0, tag=99))
        fresh = q.entries()[1]
        assert fresh.target_count == 1
        assert q.match_oldest(fresh.key) is fresh
        assert q.push(load(0, flit=1, tag=100))
        assert fresh.target_count == 2
        assert full_entry.target_count == cfg.target_capacity

    def test_fence_demoted_duplicates_promote_in_fifo_order(self):
        q = AggregatedRequestQueue(MACConfig(arq_entries=8, latency_hiding=False))
        assert q.push(load(0, tag=0))  # E1
        assert q.push(fence(tag=1))
        assert q.push(load(0, flit=1, tag=2))  # E2: blocked merge, new epoch
        assert q.fence_blocked_merges == 1
        assert q.push(fence(tag=3))  # demotes E2 behind E1 (duplicate)

        e1 = q.pop()
        assert not e1.fence and e1.target_count == 1
        # E2 is now the oldest pre-fence copy; a post-fence push of the
        # same key is still fence-blocked (proving E2 holds the key).
        assert q.push(load(0, flit=2, tag=4))  # E3
        assert q.fence_blocked_merges == 2
        e3 = q.entries()[-1]
        assert q.push(load(0, flit=3, tag=5))  # merges into E3 (same epoch)
        assert e3.target_count == 2


class TestComparatorScan:
    """The all-entries scan and the ``_index`` dict are one comparator."""

    def test_merge_choices_identical(self):
        q = fill_with_bypass_duplicates(arq_entries=16)
        key = q.entries()[0].key
        assert q.match_oldest(key) is q.entries()[0]
        q.pop()
        assert q.match_oldest(key) is q.entries()[0]
        assert q.match_oldest(-12345) is None

    def test_sanitizer_cross_check_accepts_duplicates(self, monkeypatch):
        """REPRO_SIM_CHECK=1 validates every dict hit against the scan —
        including the multi-hit case the tie-break fix is about."""
        monkeypatch.setenv("REPRO_SIM_CHECK", "1")
        q = fill_with_bypass_duplicates()
        assert q._check_match is True
        assert q.push(load(0, flit=4, tag=50))  # duplicate-key merge, checked
        q.pop()
        assert q.push(load(0, flit=5, tag=51))  # merge into the promoted copy
        assert q.merges == 2
