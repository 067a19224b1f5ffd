"""Pure-Python PCG64 streams, bit-identical to ``numpy.random.default_rng``.

The thread streams of every workload draw a few thousand bounded
integers and floats per run.  Importing numpy for them costs more than
the whole simulation of a small ``repro run``, so :class:`RandomStream`
reproduces the exact numpy 2.x sequence for the calls the streams make:

* seeding: ``SeedSequence(seed)`` (seed words hashed into a 4-word pool,
  ``generate_state(4, uint64)`` gives the PCG64 ``(initstate,
  initseq)``), then the standard PCG ``srandom``;
* :meth:`RandomStream.integers` with numpy's default ``int64`` dtype
  (Lemire's method on 32- or 64-bit draws, by the width of the range);
* :meth:`RandomStream.random` (53-bit doubles).

Each output is one 128-bit LCG step followed by the XSL-RR output
function.  A 32-bit draw returns the low half of a 64-bit output and
keeps the high half for the next 32-bit draw, across calls, as numpy's
``PCG64.next_uint32`` does; 64-bit draws leave that half alone.

Graph builders draw millions of values and stay on numpy
(:mod:`repro.workloads.graphs`); ``tests/workloads/test_rng.py`` checks
this module against numpy as the oracle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_DOUBLE = 1.0 / (1 << 53)
_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63

# SeedSequence hash constants (O'Neill's seed_seq_fe).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

Seed = Union[int, Tuple["Seed", ...], List["Seed"]]


def _seed_words(seed: Seed) -> List[int]:
    """Split a seed into little-endian 32-bit words, as SeedSequence does."""
    if isinstance(seed, (tuple, list)):
        return [w for part in seed for w in _seed_words(part)]
    if isinstance(seed, float) or not hasattr(seed, "__index__"):
        raise TypeError(f"seed must be an integer or a sequence of them, got {seed!r}")
    n = seed.__index__()
    if n < 0:
        raise ValueError(f"expected non-negative integer seed, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pcg_seed(seed: Seed) -> Tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as (initstate, initseq)."""
    words = _seed_words(seed)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state32 = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state32.append(value ^ (value >> 16))
    w = [state32[2 * k] | state32[2 * k + 1] << 32 for k in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class RandomStream:
    """A seeded PCG64 stream with numpy ``Generator`` semantics.

    ``RandomStream(seed)`` draws what ``numpy.random.default_rng(seed)``
    draws, for non-negative int seeds and (nested) tuples of them.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: Seed) -> None:
        initstate, initseq = _pcg_seed(seed)
        # PCG srandom: from state 0, step, add initstate, step.
        inc = self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        #: High half of the last 64-bit output split by a 32-bit draw.
        self._half: Optional[int] = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (s >> 64) ^ (s & _MASK64)
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _lemire32(self, r: int, count: int) -> List[int]:
        """``count`` draws in ``[0, r]``, ``0 < r < 2**32``, on 32-bit words.

        Lemire's method as numpy runs it: a word ``u`` is kept when the
        low half of ``u * (r + 1)`` reaches ``2**32 % (r + 1)``, and the
        high half is the draw.  At ``r == 2**32 - 1`` every word is kept
        as is.  The LCG step is inlined: this is the streams' hot loop.
        """
        excl = r + 1
        threshold = (_MASK32 - r) % excl
        state, inc, half = self._state, self._inc, self._half
        out: List[int] = []
        append = out.append
        while len(out) < count:
            if half is None:
                state = (state * _PCG_MULT + inc) & _MASK128
                x = (state >> 64) ^ (state & _MASK64)
                rot = state >> 122
                word = ((x >> rot) | (x << (64 - rot))) & _MASK64
                half = word >> 32
                m = (word & _MASK32) * excl
            else:
                m = half * excl
                half = None
            if m & _MASK32 >= threshold:
                append(m >> 32)
        self._state, self._half = state, half
        return out

    def _lemire64(self, r: int, count: int) -> List[int]:
        """``count`` draws in ``[0, r]``, ``r >= 2**32``, on 64-bit outputs."""
        excl = r + 1
        threshold = (_MASK64 - r) % excl
        next64 = self._next64
        out: List[int] = []
        while len(out) < count:
            m = next64() * excl
            if m & _MASK64 >= threshold:
                out.append(m >> 64)
        return out

    def integers(self, low: int, high: int, size: Optional[int] = None):
        """Uniform ints in ``[low, high)``: one int, or a list of ``size``.

        numpy's int64 ``integers``: with ``r = high - 1 - low``, ``r == 0``
        draws nothing, ``r < 2**32`` uses 32-bit words, larger ``r``
        64-bit outputs.
        """
        if not _INT64_MIN <= low < high <= _INT64_END:
            raise ValueError(f"integers: need low < high within int64, got [{low}, {high})")
        r = high - 1 - low
        count = 1 if size is None else size
        if not r:
            draws = [0] * count
        elif r <= _MASK32:
            draws = self._lemire32(r, count)
        else:
            draws = self._lemire64(r, count)
        if size is None:
            return low + draws[0]
        return [low + d for d in draws] if low else draws

    def random(self, size: Optional[int] = None):
        """Uniform floats in ``[0, 1)``: one float, or a list of ``size``."""
        if size is None:
            return (self._next64() >> 11) * _TO_DOUBLE
        next64 = self._next64
        return [(next64() >> 11) * _TO_DOUBLE for _ in range(size)]
