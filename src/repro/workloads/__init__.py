"""Synthetic benchmark generators — the paper's 12-workload suite.

Each workload reproduces the memory access pattern of one benchmark of
section 5.2 (SG, HPCG, SSCA2, GRAPPOLO, GAP, BOTS, NAS-PB); see
DESIGN.md section 4 for the substitution rationale.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    base=(
        "MemoryLayout", "Op", "ROW_BYTES", "WORD", "Workload", "interleave_round_robin",
    ),
    bots=("BotsSort", "NQueens", "SparseLU"),
    bots_extra=("BotsFib", "BotsHealth"),
    gap=("GAPBFS", "GAPPageRank"),
    gap_extra=("GAPConnectedComponents", "GAPSSSP", "GAPTriangleCounting"),
    graphs=(
        "CSRGraph", "edges_to_csr", "rmat_csr", "rmat_edges", "uniform_csr",
        "uniform_edges",
    ),
    grappolo=("Grappolo",),
    hpcg=("HPCG",),
    nas=("NASIS", "NASMG", "NASSP"),
    nas_extra=("NASCG", "NASFT"),
    registry=("AUXILIARY", "BENCHMARKS", "all_benchmarks", "benchmark_names", "make"),
    sg=("ScatterGather", "SequentialSG"),
    ssca2=("SSCA2",),
)

__all__ = [
    "AUXILIARY",
    "BENCHMARKS",
    "BotsFib",
    "BotsHealth",
    "BotsSort",
    "CSRGraph",
    "GAPBFS",
    "GAPConnectedComponents",
    "GAPPageRank",
    "GAPSSSP",
    "GAPTriangleCounting",
    "Grappolo",
    "HPCG",
    "MemoryLayout",
    "NASCG",
    "NASFT",
    "NASIS",
    "NASMG",
    "NASSP",
    "NQueens",
    "Op",
    "ROW_BYTES",
    "ScatterGather",
    "SequentialSG",
    "SparseLU",
    "SSCA2",
    "WORD",
    "Workload",
    "all_benchmarks",
    "benchmark_names",
    "edges_to_csr",
    "interleave_round_robin",
    "make",
    "rmat_csr",
    "rmat_edges",
    "uniform_csr",
    "uniform_edges",
]
