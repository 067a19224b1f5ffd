"""Absolute golden values for the Fig. 1 (left) miss-rate study.

Fig. 1 is the one figure that replays cached benchmark traces through
:meth:`repro.cache.hierarchy.CacheHierarchy.run_trace`.  Each case runs
:func:`repro.eval.experiments.fig1_benchmark_missrates` for all 12
benchmarks at 2 threads x 400 operations under one cache configuration
and compares every miss rate exactly (the floats round-trip through
JSON) with ``tests/golden/fig1_missrates.json``.

After an intended change to the cache model or a trace, rewrite the
goldens and review the per-value diff::

    PYTHONPATH=src python tests/eval/test_fig1_golden.py --regenerate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.eval.experiments import fig1_benchmark_missrates

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fig1_missrates.json"

THREADS = 2
OPS_PER_THREAD = 400

#: Cache configurations: the figure's defaults, and caches small enough
#: that both levels evict, with the L1 next-line prefetcher on.
CASES: Dict[str, Dict[str, object]] = {
    "default": dict(l1_bytes=4 << 10, llc_bytes=64 << 10, prefetch=False),
    "small-prefetch": dict(l1_bytes=1 << 10, llc_bytes=8 << 10, prefetch=True),
}


def missrates(case: str) -> Dict[str, float]:
    return fig1_benchmark_missrates(
        threads=THREADS, ops_per_thread=OPS_PER_THREAD, **CASES[case]
    )


def load_golden() -> Dict[str, Dict[str, float]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fig1_missrates_golden(case):
    assert missrates(case) == load_golden()[case]


def regenerate() -> int:
    old = load_golden() if GOLDEN.exists() else {}
    new = {case: missrates(case) for case in sorted(CASES)}
    changed = 0
    for case in sorted(set(old) | set(new)):
        before, after = old.get(case, {}), new.get(case, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                changed += 1
                print(f"  {case}/{name}: {before.get(name)} -> {after.get(name)}")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    where = GOLDEN.relative_to(GOLDEN.parents[2])
    total = sum(len(rates) for rates in new.values())
    print(f"{changed} of {total} values changed; wrote {where}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate", action="store_true",
        help="rewrite the golden values and print a per-value diff",
    )
    if not parser.parse_args().regenerate:
        parser.error("nothing to do; pass --regenerate")
    sys.exit(regenerate())
