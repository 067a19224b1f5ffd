"""Absolute golden digests for the cycle engine's ``--metrics-out`` files.

Each case runs one ``repro run`` command (or one faulty :class:`Node`)
and hashes the full metrics dict it exports: sha256 over the dict's
sorted-key JSON.  The digests live in ``tests/golden/run_metrics.json``.
They pin the ARQ, the builder, device replay, the response router and
the fabric completions end to end, where the window-engine goldens see
none of the clocked path.

After an intended change to the cycle engine's output, rewrite the
goldens and review the per-case diff::

    PYTHONPATH=src python tests/test_run_golden.py --regenerate
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "run_metrics.json"


def _cli(*argv: str) -> Callable[[], dict]:
    def run() -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "m.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--metrics-out", str(out)]) == 0
            return json.loads(out.read_text())

    return run


def _faulty_node() -> dict:
    """One closed-loop node with poisoned and dropped responses."""
    from repro.faults import FaultConfig
    from repro.hmc.config import HMCConfig
    from repro.node.node import Node
    from repro.trace.record import to_requests
    from repro.workloads.registry import make

    records = make("is", seed=7).generate(threads=4, ops_per_thread=80)
    by_tid: Dict[int, list] = {}
    for r in to_requests(records):
        by_tid.setdefault(r.tid, []).append(r)
    faults = FaultConfig.simple(
        poison_rate=0.05, drop_rate=0.05, seed=11, timeout_cycles=2000
    )
    node = Node(
        [iter(v) for _, v in sorted(by_tid.items())],
        hmc_config=HMCConfig(faults=faults),
    )
    node.run(max_cycles=2_000_000)
    return node.metrics()


CASES: Dict[str, Callable[[], dict]] = {
    "run-SG-open": _cli("run", "SG", "--threads", "2", "--ops", "300"),
    "run-IS-nodes2": _cli(
        "run", "IS", "--nodes", "2", "--threads", "2", "--ops", "300"
    ),
    "run-SG-xbar-open": _cli(
        "run", "SG", "--threads", "2", "--ops", "300",
        "--noc-topology", "xbar", "--page-policy", "open",
    ),
    "node-IS-poison-drop": _faulty_node,
}


def digest(metrics: dict) -> str:
    blob = json.dumps(metrics, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_metrics_golden(name):
    assert digest(CASES[name]()) == load_golden()[name]


def regenerate() -> int:
    old = load_golden() if GOLDEN.exists() else {}
    new = {name: digest(CASES[name]()) for name in sorted(CASES)}
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
