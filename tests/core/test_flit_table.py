"""Unit + property tests for the FLIT table's byte plans (section 4.2.1).

A plan entry is ``(byte offset, bytes, first FLIT, end FLIT)``; the
default table is the paper's 256 B row of four 64 B chunks / 16 FLITs.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.flit_table import FlitTablePolicy, plan_table

SPAN, POPCOUNT, EXACT = FlitTablePolicy
patterns = st.integers(min_value=0, max_value=15)
ROW = ((0, 256, 0, 16),)


def covered_chunks(plan):
    out = set()
    for offset, size, _, _ in plan:
        out.update(range(offset // 64, (offset + size) // 64))
    return out


def set_chunks(pattern, groups=4):
    return {i for i in range(groups) if (pattern >> i) & 1}


def payload(plan):
    return sum(size for _, size, _, _ in plan)


class TestSpanPolicy:
    table = plan_table(policy=SPAN)

    def test_one_entry_per_pattern(self):
        assert len(self.table) == 16

    def test_empty_pattern(self):
        assert self.table[0] == ()

    def test_single_chunk_64(self):
        # Paper: one set bit -> 64 B request.
        for g in range(4):
            assert self.table[1 << g] == ((64 * g, 64, 4 * g, 4 * g + 4),)

    def test_paper_example_0110_is_128(self):
        # Fig. 7/8: pattern 0110 -> one 128 B transaction at byte 64.
        assert self.table[0b0110] == ((64, 128, 4, 12),)

    def test_adjacent_aligned_pairs_128(self):
        assert self.table[0b0011] == ((0, 128, 0, 8),)
        assert self.table[0b1100] == ((128, 128, 8, 16),)

    def test_full_row_256(self):
        assert self.table[0b1111] == ROW

    def test_sparse_pair_widens_to_256(self):
        # 1001 cannot be covered by a contiguous 128 B transaction.
        assert self.table[0b1001] == ROW

    def test_three_chunks_256(self):
        assert self.table[0b0111] == ROW
        assert self.table[0b1011] == ROW

    def test_always_single_packet(self):
        assert all(len(self.table[p]) == 1 for p in range(1, 16))

    @given(pattern=patterns)
    def test_coverage(self, pattern):
        """Every requested chunk must be inside the emitted segment."""
        assert set_chunks(pattern) <= covered_chunks(self.table[pattern])

    @given(pattern=patterns)
    def test_sizes_are_supported(self, pattern):
        if pattern:
            assert payload(self.table[pattern]) in (64, 128, 256)

    @given(pattern=patterns)
    def test_segment_stays_in_row(self, pattern):
        for offset, size, lo, hi in self.table[pattern]:
            assert 0 <= offset and offset + size <= 256
            assert 0 <= lo < hi <= 16


class TestPopcountPolicy:
    table = plan_table(policy=POPCOUNT)

    def test_matches_paper_text_sizing(self):
        # 1, 2, 3/4 set bits -> 64, 128, 256 B (when geometrically valid).
        assert self.table[0b0001] == ((0, 64, 0, 4),)
        assert self.table[0b0011] == ((0, 128, 0, 8),)
        assert self.table[0b0111] == ROW
        assert self.table[0b1111] == ROW

    def test_sparse_pair_falls_back_to_span(self):
        assert self.table[0b1001] == ROW

    @given(pattern=patterns)
    def test_coverage(self, pattern):
        assert set_chunks(pattern) <= covered_chunks(self.table[pattern])


class TestExactPolicy:
    table = plan_table(policy=EXACT)

    def test_no_overfetch_ever(self):
        for p in range(16):
            assert covered_chunks(self.table[p]) == set_chunks(p)

    def test_sparse_pair_two_packets(self):
        assert self.table[0b1001] == ((0, 64, 0, 4), (192, 64, 12, 16))

    def test_run_detection(self):
        assert self.table[0b1011] == ((0, 128, 0, 8), (192, 64, 12, 16))


class TestTableProperties:
    def test_hbm_geometry(self):
        # Section 4.3: 1 KB rows -> 16 groups, larger LUT.
        t = plan_table(groups=16)
        assert len(t) == 1 << 16
        assert t[1] == ((0, 64, 0, 4),)
        assert t[(1 << 16) - 1] == ((0, 1024, 0, 64),)
        assert t[0b0110] == ((64, 128, 4, 12),)
        # Three chunks: SPAN rounds to 4 chunks, POPCOUNT takes the row.
        assert t[0b0111] == ((0, 256, 0, 16),)
        assert plan_table(groups=16, policy=POPCOUNT)[0b0111] == ((0, 1024, 0, 64),)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError, match="max_chunks must be positive, got 0"):
            plan_table(max_chunks=0)
        with pytest.raises(ValueError, match="1..16 groups"):
            plan_table(groups=0)
        with pytest.raises(ValueError, match="1..16 groups"):
            plan_table(groups=17)

    @pytest.mark.parametrize("policy", list(FlitTablePolicy))
    @pytest.mark.parametrize("groups", [4, 16])
    def test_plan_fields_agree(self, policy, groups):
        """Byte and FLIT bounds of every packet describe the same span."""
        for plan in plan_table(groups=groups, policy=policy, max_chunks=2):
            for offset, size, lo, hi in plan:
                assert (offset, size) == (lo * 16, (hi - lo) * 16)

    @given(pattern=patterns)
    def test_policies_agree_on_contiguous_patterns(self, pattern):
        """SPAN and POPCOUNT emit identical packets for contiguous runs."""
        chunks = sorted(set_chunks(pattern))
        contiguous = chunks == list(range(chunks[0], chunks[-1] + 1)) if chunks else True
        if contiguous and chunks:
            span = plan_table(policy=SPAN)[pattern]
            pop = plan_table(policy=POPCOUNT)[pattern]
            if len(chunks) != 3:  # 3 chunks: popcount says 256, span may say 256 too
                assert span == pop


class TestMaxChunksCap:
    """``max_chunks`` (max_request_bytes / chunk) caps every segment."""

    @pytest.mark.parametrize("policy", list(FlitTablePolicy))
    @pytest.mark.parametrize("groups,cap", [(4, 1), (4, 2), (16, 2), (16, 4), (16, 8)])
    def test_pieces_fit_cap_and_cover_every_requested_chunk(self, policy, groups, cap):
        capped = plan_table(groups=groups, policy=policy, max_chunks=cap)
        whole = plan_table(groups=groups, policy=policy)
        for pattern in range(1 << groups):
            plan = capped[pattern]
            chunks = [c for o, s, _, _ in plan for c in range(o // 64, (o + s) // 64)]
            assert len(chunks) == len(set(chunks)), "pieces overlap"
            requested = set_chunks(pattern, groups)
            assert requested <= set(chunks) <= covered_chunks(whole[pattern])
            kept = set(whole[pattern])
            for seg in plan:
                first, n = seg[0] // 64, seg[1] // 64
                assert n <= cap
                assert (pattern >> first) & ((1 << n) - 1), "empty piece"
                # A segment within the cap is kept as is; a cut piece
                # never crosses a cap-aligned boundary.
                if seg not in kept:
                    assert first // cap == (first + n - 1) // cap

    def test_paper_row_at_64_and_128_bytes(self):
        t64 = plan_table(max_chunks=1)
        assert t64[0b1111] == tuple((64 * g, 64, 4 * g, 4 * g + 4) for g in range(4))
        assert t64[0b1001] == ((0, 64, 0, 4), (192, 64, 12, 16))
        t128 = plan_table(max_chunks=2)
        assert t128[0b1111] == ((0, 128, 0, 8), (128, 128, 8, 16))
        # SPAN covers 1001 with the whole row; the empty middle is dropped.
        assert t128[0b1001] == ((0, 128, 0, 8), (128, 128, 8, 16))
        assert t128[0b0110] == ((64, 128, 4, 12),)

    def test_default_cap_is_the_whole_row(self):
        for groups in (4, 16):
            assert plan_table(groups=groups, max_chunks=groups) == plan_table(
                groups=groups
            )
