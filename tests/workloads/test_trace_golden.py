"""Absolute golden digests for the benchmark traces (``Workload.generate``).

Each case generates one benchmark trace at one of the ``figures --fast``
sizings and hashes every record (``op`` name, ``addr``, ``size``,
``tid``, ``core``, ``cycle``, in trace order).  The digests live in
``tests/golden/traces.json``.  The packed trace ``generate`` returns, its
``TraceRecord`` view and the copy :func:`repro.eval.runner.cached_trace`
keeps must all hash to the same digest.  Fig. 10 runs 4000 operations over 2, 4
and 8 threads; Fig. 11 and Fig. 17 run 2 threads of 500.  At 4 x 1000,
GRAPPOLO and PR give their threads streams of unequal length, so the
round-robin interleave's tail is pinned too.

After an intended change to a generator's output, rewrite the goldens
and review the per-case diff::

    PYTHONPATH=src python tests/workloads/test_trace_golden.py --regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Tuple

import pytest

from repro.core.request import RequestType
from repro.eval.runner import cached_trace
from repro.seeding import DEFAULT_SEED
from repro.trace.record import PackedTrace, TraceRecord
from repro.workloads.registry import benchmark_names, make

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "traces.json"

#: (threads, ops per thread) of every trace ``figures --fast`` generates.
SIZINGS = ((2, 2000), (4, 1000), (8, 500), (2, 500))

CASES: Dict[str, Tuple[str, int, int]] = {
    f"{name}-{threads}x{ops}": (name, threads, ops)
    for name in benchmark_names()
    for threads, ops in SIZINGS
}


def generate(name: str) -> PackedTrace:
    bench, threads, ops = CASES[name]
    return make(bench, seed=DEFAULT_SEED).generate(
        threads=threads, ops_per_thread=ops
    )


def digest(trace: Iterable[Tuple[int, ...]]) -> str:
    """Hash records or packed ``(op, ...)`` int tuples alike."""
    h = hashlib.sha256()
    for op, addr, size, tid, core, cycle in trace:
        h.update(repr((RequestType(op).name, addr, size, tid, core, cycle)).encode())
    return h.hexdigest()


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_golden(name):
    trace = generate(name)
    assert type(trace) is PackedTrace
    assert digest(trace) == load_golden()[name]
    records = list(trace.records())
    assert all(type(rec) is TraceRecord for rec in records)
    assert all(type(rec.op) is RequestType for rec in records)
    assert digest(records) == load_golden()[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cached_trace_golden(name):
    """Packing for the trace cache loses and reorders nothing."""
    bench, threads, ops = CASES[name]
    assert digest(cached_trace(bench, threads, ops, DEFAULT_SEED)) == load_golden()[name]


@pytest.mark.parametrize("name", ["GRAPPOLO", "PR"])
def test_unequal_thread_streams_are_pinned(name):
    """The 4 x 1000 traces of GRAPPOLO and PR end in a ragged round."""
    per_thread: Dict[int, int] = {}
    for rec in generate(f"{name}-4x1000").records():
        per_thread[rec.tid] = per_thread.get(rec.tid, 0) + 1
    assert len(set(per_thread.values())) > 1


def regenerate() -> int:
    old = load_golden() if GOLDEN.exists() else {}
    new = {name: digest(generate(name)) for name in sorted(CASES)}
    changed = 0
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name), new.get(name)
        if before != after:
            changed += 1
            print(f"  {name}: {before or '(none)'} -> {after or '(removed)'}")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    where = GOLDEN.relative_to(GOLDEN.parents[2])
    print(f"{changed} of {len(new)} cases changed; wrote {where}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate", action="store_true",
        help="rewrite the golden digests and print a per-case diff",
    )
    if not parser.parse_args().regenerate:
        parser.error("nothing to do; pass --regenerate")
    sys.exit(regenerate())
