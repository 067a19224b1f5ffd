"""Single-knob seeding for reproducible runs.

Every stochastic component of the reproduction — workload generators
(PCG64 streams, :mod:`repro.workloads.rng`), ISA kernel input builders
(``random.Random``) and the fault injector — accepts a seed.  This
module gives them one shared default and a deterministic way to derive
independent per-component streams from a single root seed, so
``repro --seed N ...`` reproduces a whole run (trace + faults) end to
end.
"""

from __future__ import annotations

import zlib
from typing import Union

#: Root seed used across the package (the paper's publication year).
DEFAULT_SEED = 2019


def derive_seed(root: int, *parts: Union[int, str]) -> int:
    """Derive a stable sub-seed from a root seed and a component path.

    ``derive_seed(seed, "faults")`` and ``derive_seed(seed, "workload",
    tid)`` give independent, reproducible streams without the components
    sharing (and racing on) one RNG.  Stable across processes and Python
    versions (CRC-based, not ``hash``-based).
    """
    blob = ":".join([str(root), *map(str, parts)]).encode()
    return zlib.crc32(blob) & 0x7FFFFFFF
