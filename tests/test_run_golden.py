"""Absolute golden digests for the cycle engine's ``--metrics-out`` files.

Each case runs one ``repro run`` command or one faulty :class:`Node`
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


def _is_requests(threads: int, ops: int) -> list:
    """Per-thread request lists of one IS trace (workload seed 7)."""
    from repro.trace.record import to_requests
    from repro.workloads.registry import make

    records = make("is", seed=7).generate(threads=threads, ops_per_thread=ops)
    by_tid: Dict[int, list] = {}
    for r in to_requests(records):
        by_tid.setdefault(r.tid, []).append(r)
    return [v for _, v in sorted(by_tid.items())]


def _with_stamps(metrics: dict, streams: list) -> dict:
    """``metrics`` plus every request's issue and completion cycle.

    A request's ``issue_cycle`` is stamped by the tick that gets it into
    the MAC input queue, and an SPM hit's ``complete_cycle`` by the tick
    that retires it; no metric carries either.
    """
    return {
        **metrics,
        "requests.stamps": [
            [(r.issue_cycle, r.complete_cycle) for r in reqs] for reqs in streams
        ],
    }


def _faulty_node(**rates) -> Callable[[], dict]:
    """One closed-loop IS node on a cube armed with ``FaultConfig.simple``."""

    def run() -> dict:
        from repro.faults import FaultConfig
        from repro.hmc.config import HMCConfig
        from repro.node.node import Node

        node = Node(
            [iter(reqs) for reqs in _is_requests(4, 80)],
            hmc_config=HMCConfig(faults=FaultConfig.simple(**rates)),
        )
        node.run(max_cycles=2_000_000)
        return node.metrics()

    return run


def _faulty_mesh(**rates) -> Callable[[], dict]:
    """A 4-node GUPS mesh whose every cube is armed with ``FaultConfig.simple``.

    Remote requests queue behind the Remote Access Queue long enough to
    time out, so each fault kind also reissues packets and counts
    duplicate responses system-wide.
    """

    def run() -> dict:
        from repro.eval.runner import numa_closed_loop
        from repro.faults import FaultConfig
        from repro.hmc.config import HMCConfig

        system = numa_closed_loop(
            "GUPS", nodes=4, threads=2, ops_per_thread=100,
            interconnect_latency=23,
            hmc=HMCConfig(faults=FaultConfig.simple(**rates)),
        )
        return system.metrics()

    return run


def _capacity1_mesh() -> dict:
    """A 4-node GUPS mesh whose fabric channels hold one payload each.

    Every destination admits one hop per cycle and gets its credit back
    one cycle after the pop, so the credit rule binds on almost every
    remote request: 578 fabric credit stalls and 26 Remote Access Queue
    backpressure stalls.
    """
    from repro.eval.runner import numa_streams
    from repro.node.system import NUMASystem

    system = NUMASystem(
        numa_streams("GUPS", 4, 2, 100, 2019),
        interconnect_latency=23,
        channel_capacity=1,
    )
    system.run()
    return system.metrics()


def _attributed_saturated_node() -> dict:
    """Eight IS cores, attribution on: the MAC input queue saturates.

    The cores bounce off the full 64-entry input queue 3,954 times; the
    ``router``/``input_queue_full`` stall and every request's ``submit``
    mark are pinned with the metrics.
    """
    from repro.node.node import Node
    from repro.obs import AttributionCollector, Observers
    from repro.obs.metrics import flatten

    obs = Observers(attrib=AttributionCollector())
    streams = _is_requests(8, 200)
    node = Node([iter(reqs) for reqs in streams], obs=obs)
    node.run(max_cycles=2_000_000)
    metrics = {
        **node.metrics(),
        **flatten(obs.attrib.snapshot(), "attribution."),
    }
    return _with_stamps(metrics, streams)


def _multithreaded_saturated_node() -> dict:
    """128 IS threads on 8 multithreaded cores; 198 input-queue bounces."""
    from repro.node.node import Node

    streams = _is_requests(128, 20)
    node = Node.with_multithreaded_cores(
        [iter(reqs) for reqs in streams], cores=8
    )
    node.run(max_cycles=2_000_000)
    return _with_stamps(node.metrics(), streams)


def _spm_saturated_node() -> dict:
    """Eight IS cores whose SPMs map part of the key and bucket arrays.

    Two thirds of the requests hit an SPM.  Of the 2,896 input-queue
    bounces, 225 happen while the bouncing core has an SPM retirement
    pending.
    """
    from repro.node.node import Node
    from repro.node.spm import ScratchpadMemory

    def spm(cid: int) -> ScratchpadMemory:
        s = ScratchpadMemory()
        s.map(0x100800000, 0x40000)
        s.map(0x100000000 + cid * 0x100000, 0x40000)
        return s

    streams = _is_requests(8, 200)
    node = Node([iter(reqs) for reqs in streams], spm_factory=spm)
    node.run(max_cycles=2_000_000)
    return _with_stamps(node.metrics(), streams)


CASES: Dict[str, Callable[[], dict]] = {
    "run-SG-open": _cli("run", "SG", "--threads", "2", "--ops", "300"),
    "run-IS-nodes2": _cli(
        "run", "IS", "--nodes", "2", "--threads", "2", "--ops", "300"
    ),
    "run-SG-xbar-open": _cli(
        "run", "SG", "--threads", "2", "--ops", "300",
        "--noc-topology", "xbar", "--page-policy", "open",
    ),
    "node-IS-poison-drop": _faulty_node(
        poison_rate=0.05, drop_rate=0.05, seed=11, timeout_cycles=2000
    ),
    # CRC/NAK replays and lost ACKs on every live link, a dead link the
    # device steers around, a slowed link, vault re-reads and delayed
    # responses.
    "node-IS-retry-steer": _faulty_node(
        flit_ber=0.02, ack_ber=0.02, vault_error_rate=0.2,
        delay_rate=0.05, delay_cycles=500,
        dead_links=(2,), degraded_links=((1, 2.0),),
        seed=13, timeout_cycles=4000,
    ),
    "run-SG-xbar4-open": _cli(
        "run", "SG", "--threads", "2", "--ops", "200",
        "--noc-topology", "xbar", "--noc-buffers", "4", "--page-policy", "open",
    ),
    "run-GUPS-mesh-rr": _cli(
        "run", "GUPS", "--threads", "2", "--ops", "200",
        "--noc-topology", "mesh", "--noc-arbitration", "round_robin",
    ),
    "run-GUPS-nodes4-ring-adaptive": _cli(
        "run", "GUPS", "--nodes", "4", "--threads", "2", "--ops", "100",
        "--noc-topology", "ring", "--page-policy", "adaptive",
    ),
    # A 4-node mesh under load: fabric credit stalls and Remote Access
    # Queue backpressure both happen (58 and 158 stalls).
    "run-IS-nodes4-lat7-il256": _cli(
        "run", "IS", "--nodes", "4", "--threads", "2", "--ops", "200",
        "--interconnect-latency", "7", "--interleave-bytes", "256",
    ),
    # The zero-latency fabric, and the attribution keys, which depend on
    # the order in which nodes replay their shared ARQ depth samples.
    "run-GUPS-nodes3-lat0-attrib": _cli(
        "run", "GUPS", "--nodes", "3", "--threads", "2", "--ops", "150",
        "--interconnect-latency", "0", "--attribution",
    ),
    # The fault kinds on a mesh: CRC replays (126 reissues), one dead
    # link per cube (4 failed links) and dropped responses (835 reissues).
    "mesh-GUPS-nodes4-flit-ber": _faulty_mesh(
        flit_ber=1e-3, seed=42, timeout_cycles=5000
    ),
    "mesh-GUPS-nodes4-deadlink": _faulty_mesh(
        dead_links=(1,), seed=7, timeout_cycles=5000
    ),
    "mesh-GUPS-nodes4-drop-timeout": _faulty_mesh(
        drop_rate=5e-3, seed=11, timeout_cycles=2000
    ),
    "mesh-GUPS-nodes4-cap1": _capacity1_mesh,
    "node-IS-8core-attrib": _attributed_saturated_node,
    "node-IS-mt128": _multithreaded_saturated_node,
    "node-IS-spm": _spm_saturated_node,
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
