"""Reference kernels written in the mini ISA.

Executable versions of the access patterns the evaluation revolves
around, each a plain assembly string plus a convenience runner.  These
are functionally checked (the gather really gathers) and produce real
memory traces through the Spike-stand-in tracer — the strongest form of
the DESIGN.md substitution: pattern generators validated against an
actual executed program.

Register conventions: ``a0``.. hold arguments, results land in memory.
"""

from __future__ import annotations

from .machine import Machine, run_program

#: Vector copy through the SPM: dst[i] = src[i], blocked 256 B at a time.
#: a0=src, a1=dst, a2=element count (multiple of 32).
VECTOR_COPY = """
    li    t0, 0              # element index
loop:
    bge   t0, a2, done
    slli  t1, t0, 3          # byte offset
    add   t2, a0, t1         # &src[i]
    add   t3, a1, t1         # &dst[i]
    spm.pf t2, 256           # fetch one block of src
    spm.alloc t3, 256        # produce-only dst block: map, no fetch
    li    t4, 0              # in-block index
inner:
    li    t5, 32
    bge   t4, t5, flush
    slli  t6, t4, 3
    add   s2, t2, t6
    ld    s3, 0(s2)          # SPM hit: no off-chip trace
    add   s4, t3, t6
    sd    s3, 0(s4)          # SPM hit: buffered until write-back
    addi  t4, t4, 1
    j     inner
flush:
    spm.wb t3, 256           # ...then the block writes back
    addi  t0, t0, 32
    j     loop
done:
    halt
"""

#: Gather: dst[i] = table[idx[i]]; a0=idx, a1=table, a2=dst, a3=count.
GATHER = """
    li    t0, 0
loop:
    bge   t0, a3, done
    slli  t1, t0, 3
    add   t2, a0, t1
    ld    t3, 0(t2)          # index (off-chip: data-dependent)
    slli  t3, t3, 3
    add   t4, a1, t3
    ld    t5, 0(t4)          # the gather itself
    add   t6, a2, t1
    sd    t5, 0(t6)
    addi  t0, t0, 1
    j     loop
done:
    halt
"""

#: 1D 3-point stencil through the SPM: out[i] = in[i-1]+in[i]+in[i+1].
#: a0=in, a1=out, a2=count (multiple of 32, interior only).
STENCIL_1D = """
    li    t0, 32             # first interior block start
loop:
    bge   t0, a2, done
    slli  t1, t0, 3
    add   t2, a0, t1         # &in[i]
    add   t3, a1, t1         # &out[i]
    addi  t4, t2, -256       # previous block (halo)
    spm.pf t4, 768           # halo + centre + next block in one shot
    spm.alloc t3, 256
    li    t5, 0
inner:
    li    t6, 32
    bge   t5, t6, flush
    slli  s2, t5, 3
    add   s3, t2, s2         # &in[i+k]
    ld    s4, -8(s3)
    ld    s5, 0(s3)
    add   s4, s4, s5
    ld    s5, 8(s3)
    add   s4, s4, s5
    add   s6, t3, s2
    sd    s4, 0(s6)
    addi  t5, t5, 1
    j     inner
flush:
    spm.wb t3, 256
    addi  t0, t0, 32
    j     loop
done:
    halt
"""

#: GUPS / RandomAccess: table[r % size] ^= r over a pseudo-random
#: sequence r' = r*LCG_A + LCG_C.  a0=table, a1=table words (power of
#: two), a2=updates, a3=seed.
GUPS = """
    mv    t0, a3             # r
    li    t1, 0              # update counter
    addi  t2, a1, -1         # index mask
loop:
    bge   t1, a2, done
    li    t3, 6364136223846793005
    mul   t0, t0, t3
    li    t3, 1442695040888963407
    add   t0, t0, t3
    and   t4, t0, t2         # index = r & (size-1)
    slli  t4, t4, 3
    add   t4, a0, t4
    ld    t5, 0(t4)
    xor   t5, t5, t0
    sd    t5, 0(t4)
    addi  t1, t1, 1
    j     loop
done:
    halt
"""


def run_vector_copy(elements: int = 128, src: int = 0x10000, dst: int = 0x40000) -> Machine:
    """Execute VECTOR_COPY over ``elements`` words; returns the machine."""
    if elements % 32:
        raise ValueError("element count must be a multiple of 32")
    data = {src: list(range(1, elements + 1))}
    return run_program(
        VECTOR_COPY,
        data=data,
        init_regs={0: {10: src, 11: dst, 12: elements}},
    )


def run_gather(
    count: int = 64,
    idx_base: int = 0x10000,
    table_base: int = 0x80000,
    dst_base: int = 0xC0000,
    table_size: int = 1 << 15,
    seed: int = 7,
) -> Machine:
    """Execute GATHER with a seeded random index vector.

    The default table (32 K entries = 256 KB = 1024 rows) far exceeds
    the 32-row ARQ window, so the gathers behave irregularly; shrink
    ``table_size`` below ~512 entries to make the table window-resident.
    """
    import random

    rng = random.Random(seed)
    indices = [rng.randrange(table_size) for _ in range(count)]
    table = [3 * i + 1 for i in range(table_size)]
    return run_program(
        GATHER,
        data={idx_base: indices, table_base: table},
        init_regs={0: {10: idx_base, 11: table_base, 12: dst_base, 13: count}},
    )


def run_stencil(elements: int = 128, src: int = 0x10000, dst: int = 0x40000) -> Machine:
    """Execute STENCIL_1D over ``elements`` interior words."""
    if elements % 32:
        raise ValueError("element count must be a multiple of 32")
    data = {src: [i * i % 97 for i in range(elements + 64)]}
    return run_program(
        STENCIL_1D,
        data=data,
        init_regs={0: {10: src + 256, 11: dst, 12: elements}},
    )


def run_gups(
    updates: int = 256,
    table: int = 0x100000,
    table_words: int = 1 << 14,
    seed: int = 12345,
    harts: int = 1,
) -> Machine:
    """Execute GUPS random updates (optionally on several harts)."""
    if table_words & (table_words - 1):
        raise ValueError("table size must be a power of two")
    init = {
        h: {10: table, 11: table_words, 12: updates, 13: seed + 977 * h}
        for h in range(harts)
    }
    return run_program(GUPS, harts=harts, init_regs=init)
