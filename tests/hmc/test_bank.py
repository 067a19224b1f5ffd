"""Unit + property tests for the closed-page bank model."""

import pytest
from hypothesis import given, strategies as st

from repro.hmc.bank import Bank
from repro.hmc.timing import HMCTiming

T = HMCTiming()


class TestClosedPage:
    def test_every_access_activates(self):
        """Closed-page policy: no row-buffer hits ever (section 2.2.1)."""
        bank = Bank(T)
        t = 0
        for i in range(5):
            t = bank.access(t + 1000, dram_row=7, columns=1)  # same row!
        assert bank.activations == 5  # even repeated-row accesses activate

    def test_unloaded_access_timing(self):
        bank = Bank(T)
        done = bank.access(0, dram_row=1, columns=1)
        assert done == T.t_activate + T.t_column + T.cycles_per_column

    def test_occupancy_includes_precharge(self):
        bank = Bank(T)
        bank.access(0, dram_row=1, columns=1)
        assert bank.ready_cycle == T.bank_occupancy(1)

    def test_larger_bursts_occupy_longer(self):
        b1, b8 = Bank(T), Bank(T)
        b1.access(0, 1, columns=1)
        b8.access(0, 1, columns=8)
        assert b8.ready_cycle - b1.ready_cycle == 7 * T.cycles_per_column


class TestConflicts:
    def test_conflict_counted_and_serialized(self):
        bank = Bank(T)
        first_done = bank.access(0, 1, 1)
        second_done = bank.access(1, 2, 1)
        assert bank.conflicts == 1
        # Second access starts only after the first's precharge.
        assert second_done == T.bank_occupancy(1) + T.t_activate + T.t_column + T.cycles_per_column
        assert second_done > first_done

    def test_no_conflict_when_spaced(self):
        bank = Bank(T)
        bank.access(0, 1, 1)
        bank.access(T.bank_occupancy(1), 2, 1)
        assert bank.conflicts == 0

    def test_paper_fig2_16_requests_15_conflicts(self):
        """16 simultaneous same-row 16 B requests -> 15 bank conflicts."""
        bank = Bank(T)
        for _ in range(16):
            bank.access(0, dram_row=3, columns=1)
        assert bank.conflicts == 15
        assert bank.accesses == 16

    def test_conflict_rate(self):
        bank = Bank(T)
        for _ in range(4):
            bank.access(0, 1, 1)
        assert bank.conflict_rate == 0.75

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Bank(T).access(-1, 0, 1)


class TestProperties:
    @given(
        arrivals=st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
        columns=st.integers(1, 8),
    )
    def test_no_overlapping_service(self, arrivals, columns):
        """Service windows never overlap: each access's data-ready time
        is strictly after the previous access's data-ready time."""
        bank = Bank(T)
        last_done = -1
        for a in sorted(arrivals):
            done = bank.access(a, dram_row=a % 7, columns=columns)
            assert done > last_done
            last_done = done

    @given(arrivals=st.lists(st.integers(0, 5_000), min_size=2, max_size=20))
    def test_busy_cycles_accounting(self, arrivals):
        bank = Bank(T)
        for a in sorted(arrivals):
            bank.access(a, 0, 1)
        assert bank.busy_cycles == bank.accesses * T.bank_occupancy(1)


class TestClosedPageRowState:
    """Closed page never latches a row — the `last_row` bookkeeping the
    original model carried (but never asserted) is finally exercised."""

    def test_last_row_tracks_most_recent_access(self):
        bank = Bank(T)
        assert bank.last_row == -1
        bank.access(0, dram_row=7, columns=1)
        assert bank.last_row == 7
        bank.access(10_000, dram_row=3, columns=1)
        assert bank.last_row == 3

    def test_row_never_stays_open(self):
        bank = Bank(T)
        for i in range(5):
            bank.access(i * 10_000, dram_row=7, columns=1)
            assert bank.row_open is False
        assert bank.row_hits == 0
        assert bank.last_kind == "closed"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Bank(T, policy="half-open")


class TestOpenPage:
    def test_cold_access_is_plain_activation(self):
        bank = Bank(T, policy="open")
        done = bank.access(0, dram_row=1, columns=1)
        assert done == T.t_activate + T.t_column + T.cycles_per_column
        assert bank.row_open is True
        assert (bank.row_hits, bank.row_misses) == (0, 1)
        assert bank.last_kind == "cold"

    def test_row_hit_skips_activation(self):
        bank = Bank(T, policy="open")
        bank.access(0, dram_row=1, columns=1)
        t1 = 10_000
        done = bank.access(t1, dram_row=1, columns=1)
        assert done == t1 + T.open_hit_cycles(1)
        assert done == t1 + T.t_column + T.cycles_per_column
        assert bank.row_hits == 1
        assert bank.last_kind == "hit"
        assert bank.activations == 1  # the hit did not activate

    def test_row_miss_pays_precharge_up_front(self):
        bank = Bank(T, policy="open")
        bank.access(0, dram_row=1, columns=1)
        t1 = 10_000
        done = bank.access(t1, dram_row=2, columns=1)
        assert done == t1 + T.open_miss_cycles(1)
        assert (
            done
            == t1 + T.t_precharge + T.t_activate + T.t_column + T.cycles_per_column
        )
        assert bank.row_misses == 2  # the cold access also counts as a miss
        assert bank.last_kind == "miss"

    def test_hit_beats_closed_beats_miss(self):
        """The latency ordering that motivates the whole policy space."""
        closed = Bank(T).access(0, 1, 1)
        hit_bank = Bank(T, policy="open")
        hit_bank.access(0, 1, 1)
        hit = hit_bank.access(10_000, 1, 1) - 10_000
        miss_bank = Bank(T, policy="open")
        miss_bank.access(0, 1, 1)
        miss = miss_bank.access(10_000, 2, 1) - 10_000
        assert hit < closed < miss

    def test_open_occupancy_excludes_precharge_on_hit_path(self):
        bank = Bank(T, policy="open")
        bank.access(0, dram_row=1, columns=1)
        # The row stays open: the bank frees as soon as the burst ends.
        assert bank.ready_cycle == T.t_activate + T.t_column + T.cycles_per_column
        assert bank.ready_cycle < T.bank_occupancy(1)

    def test_conflict_semantics_unchanged(self):
        bank = Bank(T, policy="open")
        bank.access(0, 1, 1)
        bank.access(1, 1, 1)  # arrives while busy
        assert bank.conflicts == 1

    def test_row_hit_rate(self):
        bank = Bank(T, policy="open")
        for _ in range(4):
            bank.access(bank.ready_cycle, dram_row=5, columns=1)
        assert bank.row_hit_rate == 0.75  # cold, hit, hit, hit


class TestAdaptivePolicy:
    def test_hit_streak_converges_to_open(self):
        """On a same-row stream adaptive warms up (the first cold touch
        spends its starting confidence), then matches open's hit path."""
        adaptive, open_ = Bank(T, policy="adaptive"), Bank(T, policy="open")
        deltas = []
        for t in range(0, 100_000, 10_000):
            deltas.append(adaptive.access(t, 1, 1) - open_.access(t, 1, 1))
        assert deltas[-1] == 0  # steady state: identical hit latency
        assert all(d == 0 for d in deltas[3:])
        assert adaptive.last_kind == open_.last_kind == "hit"

    def test_miss_streak_closes_the_row(self):
        bank = Bank(T, policy="adaptive")
        row = 0
        for t in range(0, 200_000, 10_000):
            row += 1  # never the same row: zero hit locality
            bank.access(t, row, 1)
        # Confidence exhausted: the bank precharges immediately and the
        # row is left closed, exactly like closed-page operation.
        assert bank.row_open is False
        occupancy_tail = bank.ready_cycle - bank.last_start
        assert occupancy_tail == T.bank_occupancy(1)

    def test_recovers_when_locality_returns(self):
        bank = Bank(T, policy="adaptive")
        row = 0
        for t in range(0, 100_000, 10_000):
            row += 1
            bank.access(t, row, 1)
        assert bank.row_open is False
        hits_before = bank.row_hits
        # Re-touching the same row rebuilds confidence cold-hit by
        # cold-hit until rows stay open and real hits flow again.
        for t in range(200_000, 300_000, 10_000):
            bank.access(t, 42, 1)
        assert bank.row_hits > hits_before

    def test_deterministic(self):
        def run():
            bank = Bank(T, policy="adaptive")
            return [
                bank.access(t, (t // 7) % 5, 1) for t in range(0, 90_000, 3_000)
            ]

        assert run() == run()
