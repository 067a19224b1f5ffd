"""Unit + property tests for the FLIT map (Fig. 6) and builder stage 1 (Fig. 8).

The FLIT map is a plain int (``ARQEntry.bits``); stage 1 OR-reduces it
into group bits with :func:`repro.core.flit_table.group_or`.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.arq import AggregatedRequestQueue
from repro.core.config import MACConfig
from repro.core.flit_table import group_masks, group_or
from repro.core.request import MemoryRequest, RequestType

bits16 = st.integers(min_value=0, max_value=0xFFFF)
PAPER_MASKS = group_masks(16, 4)


def random_maps(nflits, n):
    rng = random.Random(nflits)
    return [rng.getrandbits(nflits) for _ in range(n)]


def arq_with(*requests):
    arq = AggregatedRequestQueue(MACConfig(latency_hiding=False))
    for r in requests:
        assert arq.push(r)
    return arq


class TestBasics:
    """The FLIT map an ARQ entry holds."""

    def test_initially_empty(self):
        # A fence requests no FLIT.
        (fence,) = arq_with(MemoryRequest(addr=0, rtype=RequestType.FENCE)).entries()
        assert fence.bits == 0

    def test_paper_example_bit5(self):
        # Fig. 6: FLIT number 5 requested -> bit[5] set.
        (entry,) = arq_with(MemoryRequest(addr=0xA50, rtype=RequestType.LOAD)).entries()
        assert format(entry.bits, "016b") == "0000000000100000"

    def test_set_is_idempotent(self):
        # Two requests to FLIT 3 of one row: two targets, one bit.
        (entry,) = arq_with(
            MemoryRequest(addr=0xA30, rtype=RequestType.LOAD, tag=1),
            MemoryRequest(addr=0xA38, rtype=RequestType.LOAD, tag=2),
        ).entries()
        assert entry.target_count == 2
        assert entry.bits == 1 << 3

    def test_invalid_width(self):
        # The map is one int of flits_per_row bits; at most 64 are modelled.
        with pytest.raises(ValueError, match="FLIT map wider than 64 bits"):
            MACConfig(row_bytes=2048)


class TestGroupMasks:
    def test_paper_row_masks(self):
        # 256 B row, 64 B groups: four 4-FLIT masks, bit 0 lowest.
        assert PAPER_MASKS == ((1, 0xF), (2, 0xF0), (4, 0xF00), (8, 0xF000))

    def test_1kb_row_masks(self):
        # Section 4.3: 1 KB rows of 16 B FLITs -> 16 groups of 4 FLITs.
        assert group_masks(64, 16) == tuple((1 << g, 0xF << 4 * g) for g in range(16))


class TestGroupBits:
    def test_paper_example_0110(self):
        # Fig. 7/8: FLITs 6, 8 and 9 -> groups 0110.
        assert group_or((1 << 6) | (1 << 8) | (1 << 9), PAPER_MASKS) == 0b0110

    def test_all_groups(self):
        assert group_or(0, PAPER_MASKS) == 0
        assert group_or(0xFFFF, PAPER_MASKS) == 0b1111

    def test_single_group(self):
        assert group_or(1 << 0, PAPER_MASKS) == 0b0001
        assert group_or(1 << 15, PAPER_MASKS) == 0b1000

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError, match="cannot split 16 FLITs into 3 groups"):
            group_masks(16, 3)
        with pytest.raises(ValueError):
            group_masks(16, 0)

    @given(bits=bits16)
    def test_group_or_consistency(self, bits):
        """A group bit is set iff some FLIT bit in that 4-bit chunk is."""
        g = group_or(bits, PAPER_MASKS)
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
            # The 1 KB row (section 4.3), sampled the same way.
            (64, 16, [1 << f for f in range(64)] + random_maps(64, 5_000)),
        ],
        ids=["16/4", "8/2", "16/2", "32/8", "64/16"],
    )
    def test_exhaustive_against_definition(self, nflits, groups, maps):
        """Bit g is set iff any FLIT in group g is set."""
        per = nflits // groups
        members = [range(g * per, (g + 1) * per) for g in range(groups)]
        masks = group_masks(nflits, groups)
        for bits in maps:
            expected = 0
            for g, flits in enumerate(members):
                if any((bits >> f) & 1 for f in flits):
                    expected |= 1 << g
            assert group_or(bits, masks) == expected, bits
