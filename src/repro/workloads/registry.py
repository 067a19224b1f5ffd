"""Benchmark registry — the paper's 12-workload evaluation set.

Maps benchmark names (as they appear on the x-axes of Figs. 9-17) to
workload classes.  The ExecutionProfile values (IPC, RPI, SPM-miss rate)
attached to each class are modelled per workload family from published
characterisations — irregular graph codes run at low IPC with almost
every request missing the SPM; dense/stencil codes run faster with
slightly better SPM capture — and are tuned so every benchmark offers
more than 2 raw requests/cycle to the MAC, averaging ~9 RPC with the
IPC x RPI x 8 cores x mem-rate model of Eq. 2 (Fig. 9).
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.seeding import DEFAULT_SEED

from .base import Workload
from .bots import BotsSort, NQueens, SparseLU
from .bots_extra import BotsFib, BotsHealth
from .gap import GAPBFS, GAPPageRank
from .gap_extra import GAPConnectedComponents, GAPSSSP, GAPTriangleCounting
from .grappolo import Grappolo
from .hpcg import HPCG
from .nas import NASIS, NASMG, NASSP
from .nas_extra import NASCG, NASFT
from .sg import ScatterGather, SequentialSG
from .ssca2 import SSCA2

#: The 12 benchmarks of the paper's evaluation (section 5.2), in the
#: order used by the figures.
BENCHMARKS: Dict[str, Type[Workload]] = {
    "SG": ScatterGather,
    "HPCG": HPCG,
    "SSCA2": SSCA2,
    "GRAPPOLO": Grappolo,
    "BFS": GAPBFS,
    "PR": GAPPageRank,
    "NQUEENS": NQueens,
    "SPARSELU": SparseLU,
    "SORT": BotsSort,
    "MG": NASMG,
    "SP": NASSP,
    "IS": NASIS,
}

#: Extra workloads not in the headline figures: the remaining GAP,
#: BOTS and NAS kernels, for coverage beyond the paper's 12-benchmark
#: selection, plus the sequential SG control of Fig. 1 (right).
AUXILIARY: Dict[str, Type[Workload]] = {
    # The paper's scatter/gather kernel IS the GUPS access pattern
    # (random word-granularity updates over a huge table); accept the
    # conventional name as an alias.
    "GUPS": ScatterGather,
    "SG-SEQ": SequentialSG,
    "CC": GAPConnectedComponents,
    "SSSP": GAPSSSP,
    "TC": GAPTriangleCounting,
    "FIB": BotsFib,
    "HEALTH": BotsHealth,
    "CG": NASCG,
    "FT": NASFT,
}


def benchmark_names() -> List[str]:
    """Names of the 12 evaluation benchmarks, figure order."""
    return list(BENCHMARKS)


def make(name: str, scale: int = 1, seed: int = DEFAULT_SEED, **kwargs) -> Workload:
    """Instantiate a benchmark by name (case-insensitive)."""
    key = name.upper()
    cls = BENCHMARKS.get(key) or AUXILIARY.get(key)
    if cls is None:
        known = ", ".join(sorted({**BENCHMARKS, **AUXILIARY}))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")
    return cls(scale=scale, seed=seed, **kwargs)
