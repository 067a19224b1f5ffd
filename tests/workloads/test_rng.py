"""``RandomStream`` against numpy's ``Generator``: same seed, same draws.

numpy is the oracle.  Each example seeds both generators alike and
replays one random script of interleaved ``integers``/``random`` calls,
scalar and sized, so the carried 32-bit half-word of PCG64 and every
bounded-integer path (no draw, 32-bit Lemire, raw 32-bit, 64-bit
Lemire, raw 64-bit) are crossed in arbitrary orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import derive_seed
from repro.workloads.rng import RandomStream

INT64_MIN, INT64_END = -(2**63), 2**63

#: Range widths at the edges of numpy's bounded-integer paths.
EDGE_WIDTHS = [1, 2, 3, 256, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 2**63, 2**64]

seeds = st.one_of(
    st.integers(0, 2**160),
    st.tuples(st.integers(0, 2**33), st.integers(0, 63)),  # Workload.generate
    st.builds(
        lambda root, part: derive_seed(root, "node", part),
        st.integers(0, 2**31),
        st.integers(0, 64),
    ),
)

sizes = st.one_of(st.none(), st.integers(0, 40))


@st.composite
def integer_calls(draw):
    width = draw(st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 2**64)))
    low = draw(
        st.one_of(st.just(0), st.just(INT64_MIN), st.integers(INT64_MIN, INT64_END - width))
    )
    low = min(low, INT64_END - width)  # keep high within int64
    return ("integers", low, low + width, draw(sizes))


calls = st.one_of(integer_calls(), st.tuples(st.just("random"), sizes))


@settings(max_examples=300, deadline=None)
@given(seed=seeds, script=st.lists(calls, max_size=60))
def test_matches_numpy_draw_for_draw(seed, script):
    oracle = np.random.default_rng(seed)
    stream = RandomStream(seed)
    for name, *args in script:
        expected = np.asarray(getattr(oracle, name)(*args)).tolist()
        assert getattr(stream, name)(*args) == expected, (name, args)


def test_workload_seed_first_draws():
    """A thread stream's first draws, as ``Workload.generate`` seeds it."""
    oracle = np.random.default_rng((2019, 3))
    stream = RandomStream((2019, 3))
    assert stream.integers(0, 256, size=32) == oracle.integers(0, 256, size=32).tolist()
    assert stream.random(32) == oracle.random(32).tolist()
    assert stream.integers(0, 1 << 20) == int(oracle.integers(0, 1 << 20))


@pytest.mark.parametrize("seed", [-1, (5, -2), -(2**40)])
def test_negative_seed_raises_like_numpy(seed):
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(ValueError):
        RandomStream(seed)


@pytest.mark.parametrize("seed", [1.5, "7", None])
def test_non_integer_seed_raises(seed):
    with pytest.raises(TypeError):
        RandomStream(seed)


@pytest.mark.parametrize("low, high", [(5, 5), (6, 5), (0, 2**63 + 1), (-(2**63) - 1, 0)])
def test_empty_or_out_of_int64_range_raises_like_numpy(low, high):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(low, high)
    with pytest.raises(ValueError):
        RandomStream(0).integers(low, high)
