"""Unit + property tests for the FLIT table (section 4.2.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.flit_table import BuiltSegment, FlitTable, FlitTablePolicy

patterns = st.integers(min_value=0, max_value=15)


def covered_chunks(segments):
    out = set()
    for s in segments:
        out.update(range(s.offset, s.offset + s.length))
    return out


def set_chunks(pattern):
    return {i for i in range(4) if (pattern >> i) & 1}


class TestSpanPolicy:
    table = FlitTable(policy=FlitTablePolicy.SPAN)

    def test_empty_pattern(self):
        assert self.table.lookup(0) == ()

    def test_single_chunk_64(self):
        # Paper: one set bit -> 64 B request.
        for g in range(4):
            segs = self.table.lookup(1 << g)
            assert len(segs) == 1
            assert segs[0] == BuiltSegment(g, 1)
            assert self.table.request_bytes(1 << g) == 64

    def test_paper_example_0110_is_128(self):
        # Fig. 7/8: pattern 0110 -> one 128 B transaction.
        segs = self.table.lookup(0b0110)
        assert len(segs) == 1
        assert segs[0].length == 2
        assert self.table.request_bytes(0b0110) == 128

    def test_adjacent_aligned_pairs_128(self):
        assert self.table.request_bytes(0b0011) == 128
        assert self.table.request_bytes(0b1100) == 128

    def test_full_row_256(self):
        assert self.table.request_bytes(0b1111) == 256

    def test_sparse_pair_widens_to_256(self):
        # 1001 cannot be covered by a contiguous 128 B transaction.
        assert self.table.request_bytes(0b1001) == 256

    def test_three_chunks_256(self):
        assert self.table.request_bytes(0b0111) == 256
        assert self.table.request_bytes(0b1011) == 256

    def test_always_single_packet(self):
        for p in range(1, 16):
            assert self.table.packet_count(p) == 1

    @given(pattern=patterns)
    def test_coverage(self, pattern):
        """Every requested chunk must be inside the emitted segment."""
        assert set_chunks(pattern) <= covered_chunks(self.table.lookup(pattern))

    @given(pattern=patterns)
    def test_sizes_are_supported(self, pattern):
        if pattern:
            assert self.table.request_bytes(pattern) in (64, 128, 256)

    @given(pattern=patterns)
    def test_segment_stays_in_row(self, pattern):
        for s in self.table.lookup(pattern):
            assert 0 <= s.offset and s.offset + s.length <= 4


class TestPopcountPolicy:
    table = FlitTable(policy=FlitTablePolicy.POPCOUNT)

    def test_matches_paper_text_sizing(self):
        # 1, 2, 3/4 set bits -> 64, 128, 256 B (when geometrically valid).
        assert self.table.request_bytes(0b0001) == 64
        assert self.table.request_bytes(0b0011) == 128
        assert self.table.request_bytes(0b0111) == 256
        assert self.table.request_bytes(0b1111) == 256

    def test_sparse_pair_falls_back_to_span(self):
        assert self.table.request_bytes(0b1001) == 256

    @given(pattern=patterns)
    def test_coverage(self, pattern):
        assert set_chunks(pattern) <= covered_chunks(self.table.lookup(pattern))


class TestExactPolicy:
    table = FlitTable(policy=FlitTablePolicy.EXACT)

    def test_no_overfetch_ever(self):
        for p in range(16):
            assert covered_chunks(self.table.lookup(p)) == set_chunks(p)

    def test_sparse_pair_two_packets(self):
        assert self.table.packet_count(0b1001) == 2
        assert self.table.request_bytes(0b1001) == 128  # 2 x 64 B

    def test_run_detection(self):
        segs = self.table.lookup(0b1011)
        assert segs == (BuiltSegment(0, 2), BuiltSegment(3, 1))


class TestTableProperties:
    def test_storage_matches_paper(self):
        # Section 4.2.1: 12 B for the 16-entry table.
        assert FlitTable().storage_bytes == 12

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            FlitTable().lookup(16)
        with pytest.raises(ValueError):
            FlitTable().lookup(-1)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError, match="max_chunks must be positive, got 0"):
            FlitTable(max_chunks=0)
        with pytest.raises(ValueError):
            FlitTable(groups=0)
        with pytest.raises(ValueError):
            FlitTable(groups=17)
        with pytest.raises(ValueError):
            FlitTable(chunk_bytes=0)

    def test_hbm_geometry(self):
        # Section 4.3: 1 KB rows -> 16 groups, larger LUT.
        t = FlitTable(groups=16, chunk_bytes=64)
        assert t.request_bytes(1) == 64
        assert t.request_bytes((1 << 16) - 1) == 1024

    @given(pattern=patterns)
    def test_policies_agree_on_contiguous_patterns(self, pattern):
        """SPAN and POPCOUNT emit identical packets for contiguous runs."""
        chunks = sorted(set_chunks(pattern))
        contiguous = chunks == list(range(chunks[0], chunks[-1] + 1)) if chunks else True
        if contiguous and chunks:
            span = FlitTable(policy=FlitTablePolicy.SPAN).lookup(pattern)
            pop = FlitTable(policy=FlitTablePolicy.POPCOUNT).lookup(pattern)
            if len(chunks) != 3:  # 3 chunks: popcount says 256, span may say 256 too
                assert span == pop


class TestMaxChunksCap:
    """``max_chunks`` (max_request_bytes / chunk) caps every segment."""

    @pytest.mark.parametrize("policy", list(FlitTablePolicy))
    @pytest.mark.parametrize("groups,cap", [(4, 1), (4, 2), (16, 2), (16, 4), (16, 8)])
    def test_pieces_fit_cap_and_cover_every_requested_chunk(self, policy, groups, cap):
        capped = FlitTable(groups=groups, policy=policy, max_chunks=cap)
        whole = FlitTable(groups=groups, policy=policy)
        for pattern in range(1 << groups):
            segs = capped.lookup(pattern)
            chunks = [c for s in segs for c in range(s.offset, s.offset + s.length)]
            assert len(chunks) == len(set(chunks)), "pieces overlap"
            requested = {i for i in range(groups) if (pattern >> i) & 1}
            assert requested <= set(chunks) <= covered_chunks(whole.lookup(pattern))
            kept = set(whole.lookup(pattern))
            for s in segs:
                assert s.length <= cap
                assert (pattern >> s.offset) & ((1 << s.length) - 1), "empty piece"
                # A segment within the cap is kept as is; a cut piece
                # never crosses a cap-aligned boundary.
                if s not in kept:
                    assert s.offset // cap == (s.offset + s.length - 1) // cap

    def test_paper_row_at_64_and_128_bytes(self):
        t64 = FlitTable(max_chunks=1)
        assert t64.lookup(0b1111) == tuple(BuiltSegment(g, 1) for g in range(4))
        assert t64.lookup(0b1001) == (BuiltSegment(0, 1), BuiltSegment(3, 1))
        t128 = FlitTable(max_chunks=2)
        assert t128.lookup(0b1111) == (BuiltSegment(0, 2), BuiltSegment(2, 2))
        # SPAN covers 1001 with the whole row; the empty middle is dropped.
        assert t128.lookup(0b1001) == (BuiltSegment(0, 2), BuiltSegment(2, 2))
        assert t128.lookup(0b0110) == (BuiltSegment(1, 2),)

    def test_default_cap_is_the_whole_row(self):
        for groups in (4, 16):
            capped = FlitTable(groups=groups, max_chunks=groups)
            whole = FlitTable(groups=groups)
            assert all(
                capped.lookup(p) == whole.lookup(p) for p in range(1 << groups)
            )
