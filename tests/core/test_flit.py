"""Unit + property tests for the FLIT map (Fig. 6)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.flit import FlitMap

bits16 = st.integers(min_value=0, max_value=0xFFFF)


class TestBasics:
    def test_initially_empty(self):
        m = FlitMap()
        assert m.is_empty()
        assert m.count() == 0

    def test_paper_example_bit5(self):
        # Fig. 6: FLIT number 5 requested -> bit[5] set.
        m = FlitMap()
        m.set(5)
        assert m.test(5)
        assert str(m) == "0000000000100000"

    def test_set_is_idempotent(self):
        m = FlitMap()
        m.set(3)
        m.set(3)
        assert m.count() == 1

    def test_out_of_range(self):
        m = FlitMap()
        with pytest.raises(ValueError):
            m.set(16)
        with pytest.raises(ValueError):
            m.test(-1)

    def test_clear(self):
        m = FlitMap()
        m.set(1)
        m.clear()
        assert m.is_empty()

    def test_first_last(self):
        m = FlitMap()
        m.set(3)
        m.set(11)
        assert m.first() == 3
        assert m.last() == 11

    def test_first_empty_raises(self):
        with pytest.raises(ValueError):
            FlitMap().first()

    def test_flit_ids_sorted(self):
        m = FlitMap()
        for f in (9, 2, 14):
            m.set(f)
        assert list(m.flit_ids()) == [2, 9, 14]

    def test_copy_is_independent(self):
        m = FlitMap()
        m.set(1)
        c = m.copy()
        c.set(2)
        assert not m.test(2)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            FlitMap(nflits=0)
        with pytest.raises(ValueError):
            FlitMap(nflits=65)

    def test_bits_outside_row_rejected(self):
        with pytest.raises(ValueError):
            FlitMap(nflits=4, bits=0x10)


class TestGroupBits:
    def test_paper_example_0110(self):
        # Fig. 7/8: FLITs 6, 8 and 9 -> groups 0110.
        m = FlitMap()
        for f in (6, 8, 9):
            m.set(f)
        assert m.group_bits(4) == 0b0110

    def test_all_groups(self):
        m = FlitMap(bits=0xFFFF)
        assert m.group_bits(4) == 0b1111

    def test_single_group(self):
        m = FlitMap()
        m.set(0)
        assert m.group_bits(4) == 0b0001
        m2 = FlitMap()
        m2.set(15)
        assert m2.group_bits(4) == 0b1000

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            FlitMap().group_bits(3)

    @given(bits=bits16)
    def test_group_or_consistency(self, bits):
        """A group bit is set iff some FLIT bit in that 4-bit chunk is."""
        m = FlitMap(bits=bits)
        g = m.group_bits(4)
        for group in range(4):
            chunk = (bits >> (group * 4)) & 0xF
            assert bool((g >> group) & 1) == bool(chunk)

    @pytest.mark.parametrize(
        "nflits,groups,maps",
        [
            (16, 4, range(1 << 16)),
            (8, 2, range(1 << 8)),
            (16, 2, range(1 << 16)),
            # 2**32 maps is too many: every single-FLIT map, then a seeded
            # sample across the whole range.
            (32, 8, [1 << f for f in range(32)]
             + random.Random(32).sample(range(1 << 32), 20_000)),
        ],
        ids=["16/4", "8/2", "16/2", "32/8"],
    )
    def test_exhaustive_against_definition(self, nflits, groups, maps):
        """Bit g is set iff any FLIT in group g is set."""
        per = nflits // groups
        members = [range(g * per, (g + 1) * per) for g in range(groups)]
        for bits in maps:
            expected = 0
            for g, flits in enumerate(members):
                if any((bits >> f) & 1 for f in flits):
                    expected |= 1 << g
            assert FlitMap(nflits, bits).group_bits(groups) == expected, bits

    @given(bits=bits16)
    def test_count_matches_ids(self, bits):
        m = FlitMap(bits=bits)
        assert m.count() == len(list(m.flit_ids()))

    @given(bits=st.integers(min_value=1, max_value=0xFFFF))
    def test_first_last_bracket_all_ids(self, bits):
        m = FlitMap(bits=bits)
        ids = list(m.flit_ids())
        assert m.first() == min(ids)
        assert m.last() == max(ids)
