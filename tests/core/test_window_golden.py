"""Absolute golden digests for the window engine (``coalesce_trace_fast``)
and the direct dispatch comparator (``dispatch_raw``).

Each case runs one trace through the window engine (the ``raw-<BENCH>``
cases: through direct dispatch) and hashes the packet stream (per
packet: ``addr``, ``size``, ``rtype``, ``bypassed`` and ``(tid, tag,
flit_id)`` of every satisfied request, in emission order; the FLIT id
comes from the request's address) together with
``MACStats.snapshot()``.  The digests live in
``tests/golden/window_engine.json``; relative tests (window vs cycle
engine) cannot catch both sides drifting together, these can.  Every
benchmark case runs twice: on ``list(to_requests(trace))`` and on the
cached ``PackedTrace`` itself, whose packets build their requests when
the digest reads them.  Both must hit the same digest.

After an intended change to the engine's output, rewrite the goldens
and review the per-case diff::

    PYTHONPATH=src python tests/core/test_window_golden.py --regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import pytest

from repro.baselines.direct import dispatch_raw
from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.mac import coalesce_trace_fast
from repro.core.request import MemoryRequest, RequestType
from repro.core.stats import MACStats
from repro.eval.runner import cached_trace
from repro.seeding import DEFAULT_SEED
from repro.trace.record import PackedTrace, to_requests
from repro.workloads.registry import benchmark_names

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "window_engine.json"

#: The ``figures --fast`` trace sizing.
THREADS, OPS_PER_THREAD = 2, 500

#: ``policy`` ``None`` selects direct dispatch instead of the window engine.
Case = Callable[
    [],
    Tuple[
        Union[PackedTrace, List[MemoryRequest]], MACConfig, Optional[FlitTablePolicy]
    ],
]


def _bench(name: str, policy=FlitTablePolicy.SPAN, **cfg) -> Case:
    def build():
        trace = cached_trace(name, THREADS, OPS_PER_THREAD, DEFAULT_SEED)
        return trace, MACConfig(**cfg), policy

    return build


def _synthetic() -> Tuple[List[MemoryRequest], MACConfig, FlitTablePolicy]:
    """Seeded mix of loads, stores, fences and atomics over few hot rows."""
    rng = random.Random(1709)
    tags: Dict[int, int] = {}
    out = []
    for _ in range(4000):
        tid = rng.randrange(6)
        tag = tags.get(tid, 0)
        tags[tid] = tag + 1
        roll = rng.random()
        if roll < 0.02:
            rtype = RequestType.FENCE
        elif roll < 0.06:
            rtype = RequestType.ATOMIC
        elif roll < 0.40:
            rtype = RequestType.STORE
        else:
            rtype = RequestType.LOAD
        addr = 0 if rtype is RequestType.FENCE else (
            (rng.randrange(48) << 8) | rng.randrange(256)
        )
        out.append(MemoryRequest(addr, rtype, tid, tag, 8, tid, 0, 0))
    return out, MACConfig(), FlitTablePolicy.SPAN


CASES: Dict[str, Case] = {}
for _name in benchmark_names():
    for _entries in (8, 32, 256):
        CASES[f"{_name}-arq{_entries}"] = _bench(_name, arq_entries=_entries)
for _name in ("SG", "IS"):
    for _policy in FlitTablePolicy:
        CASES[f"{_name}-{_policy.value}"] = _bench(_name, _policy)
    CASES[f"{_name}-max64"] = _bench(_name, max_request_bytes=64)
CASES["SG-row1024"] = _bench("SG", row_bytes=1024)
CASES["synthetic-fence-atomic"] = _synthetic
for _name in benchmark_names():
    CASES[f"raw-{_name}"] = _bench(_name, None)


#: The cases whose input is a cached benchmark trace.
PACKED_CASES = sorted(name for name in CASES if name != "synthetic-fence-atomic")


def run_case(name: str, packed: bool = False):
    """Run one case; a benchmark trace goes in as requests unless ``packed``."""
    requests, cfg, policy = CASES[name]()
    if isinstance(requests, PackedTrace) and not packed:
        requests = list(to_requests(requests))
    stats = MACStats()
    if policy is None:
        packets = dispatch_raw(requests, cfg, stats)
    else:
        packets = coalesce_trace_fast(requests, cfg, policy, stats)
    return packets, stats, AddressCodec(cfg)


def digest(packets, stats: MACStats, codec: AddressCodec) -> str:
    h = hashlib.sha256()
    flit_id = codec.flit_id
    for p in packets:
        targets = [(r.tid, r.tag, flit_id(r.addr)) for r in p.requests]
        h.update(repr((p.addr, p.size, int(p.rtype), p.bypassed, targets)).encode())
    h.update(json.dumps(stats.snapshot()).encode())
    return h.hexdigest()


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_window_engine_golden(name):
    assert digest(*run_case(name)) == load_golden()[name]


@pytest.mark.parametrize("name", PACKED_CASES)
def test_packed_input_golden(name):
    """The engines read the cached ``PackedTrace`` to the same digest."""
    assert digest(*run_case(name, packed=True)) == load_golden()[name]


def regenerate() -> int:
    old = load_golden() if GOLDEN.exists() else {}
    new = {name: digest(*run_case(name)) for name in sorted(CASES)}
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
