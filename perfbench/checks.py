"""Correctness gate and result records for the benchmark.

* Fingerprints: a canonical, JSON-ready dict of simulated metrics and its
  sha256.  Simulated statistics are deterministic, so a golden
  fingerprint committed under ``goldens/`` pins them absolutely.
* Conservation: seed-independent request accounting that must hold for
  any input (packet targets sum to the raw requests; every non-fence
  request is answered exactly once).
* Records: the JSON result file each benchmark run writes, with the host
  facts needed to compare results across machines.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import platform
import re
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "goldens"

#: Allowed metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-].
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

RECORD_SCHEMA = 1


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def canonical(metrics: Mapping[str, object]) -> Dict[str, object]:
    """Strict-JSON view of a flat metrics dict, the way ``--metrics-out``
    writes it: undefined ratios (nan) become null, other values keep
    their exact repr."""
    out: Dict[str, object] = {}
    for key in sorted(metrics, key=str):
        v = metrics[key]
        if isinstance(v, float) and math.isnan(v):
            v = None
        elif not isinstance(v, (int, float, str, bool, type(None))):
            v = str(v)
        out[str(key)] = v
    return out


def fingerprint(canon: Mapping[str, object]) -> str:
    blob = json.dumps(canon, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> Optional[dict]:
    path = golden_path(workload)
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


def write_golden(workload: str, seed: int, canon: Mapping[str, object]) -> Path:
    path = golden_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "sha256": fingerprint(canon),
        "metrics": dict(canon),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n")
    return path


def diff_canonical(old: Mapping[str, object], new: Mapping[str, object]) -> List[str]:
    """Per-key differences, one line each (empty when identical)."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            lines.append(f"- {key}: {old[key]!r}")
        elif key not in old:
            lines.append(f"+ {key}: {new[key]!r}")
        elif old[key] != new[key]:
            lines.append(f"~ {key}: {old[key]!r} -> {new[key]!r}")
    return lines


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------


def conservation_problems(c: Mapping[str, int]) -> List[str]:
    """Seed-independent accounting checks over one run's request counts.

    Keys (each check runs only when its keys are present):

    * ``inputs``: non-fence raw requests fed to the model;
    * ``raw``: non-fence raw requests the MAC (or dispatcher) counted;
    * ``targets``: sum of targets over every emitted packet;
    * ``unique_targets``: distinct ``(tid, tag)`` targets over packets;
    * ``answered``: raw requests whose response reached the requester;
    * ``outstanding``: raw requests still in flight after the run;
    * ``duplicates``: responses suppressed or dropped as duplicates;
    * ``packets`` / ``device_requests``: packets emitted vs served.
    """
    problems = []

    def check(a: str, b: str, what: str) -> None:
        if a in c and b in c and c[a] != c[b]:
            problems.append(f"{what}: {a}={c[a]} != {b}={c[b]}")

    check("targets", "raw", "packet targets do not sum to the raw requests")
    check("raw", "inputs", "raw requests counted differ from requests fed")
    check("unique_targets", "targets", "a target appears in more than one packet")
    check("answered", "inputs", "not every non-fence request was answered once")
    check("device_requests", "packets", "device served a different packet count")
    for key in ("outstanding", "duplicates"):
        if c.get(key):
            problems.append(f"{key}={c[key]} after the run (expected 0)")
    return problems


def packet_counts(packets: Iterable, stats, inputs: int) -> Dict[str, int]:
    """Counts of an open-loop packet stream for :func:`conservation_problems`."""
    targets = 0
    seen = set()
    n = 0
    for p in packets:
        n += 1
        targets += len(p.targets)
        seen.update((t.tid, t.tag) for t in p.targets)
    return {
        "inputs": inputs,
        "raw": stats.memory_raw_requests,
        "targets": targets,
        "unique_targets": len(seen),
        "answered": targets,
        "packets": n,
    }


# ---------------------------------------------------------------------------
# Result records and host facts
# ---------------------------------------------------------------------------


class _Slot:
    __slots__ = ("addr", "bank", "seq")

    def __init__(self, addr: int, bank: int, seq: int) -> None:
        self.addr, self.bank, self.seq = addr, bank, seq

    def key(self):
        return (self.addr & 0xFFF, self.bank)


#: What :func:`reference_s` takes on a quiet host (a 2.1 GHz Xeon vCPU
#: measured 0.09-0.11 s).  Host times are scaled to this speed.
REFERENCE_NOMINAL_S = 0.100


#: Iterations of the full reference loop; :func:`reference_s` reports
#: any shorter loop's time per this many iterations.
REFERENCE_N = 60_000


def reference_s(n: int = REFERENCE_N) -> float:
    """Time of a fixed pure-Python reference loop on this host, now.

    The loop does what the simulator does most: allocate small slotted
    objects, hash tuple keys into a dict, push and pop a heap.  Noise on
    a shared VM slows it together with the jobs running beside it (log
    correlation 0.97 with figures-fast job times), so it serves both as
    the record's calibration time and to scale each job's host times.
    The time is per ``REFERENCE_N`` iterations, whatever ``n`` is.
    """
    t = time.perf_counter()
    counts: Dict[tuple, int] = {}
    heap: List[tuple] = []
    slots = []
    acc = 0
    for i in range(n):
        s = _Slot(i * 2654435761 & 0xFFFFFFFF, i & 63, i)
        slots.append(s)
        k = s.key()
        counts[k] = counts.get(k, 0) + 1
        heapq.heappush(heap, (s.addr, i))
        if len(heap) > 512:
            acc += heapq.heappop(heap)[1]
    for s in slots[::3]:
        acc += counts.get(s.key(), 0)
    return (time.perf_counter() - t) * REFERENCE_N / n


def git_revision(root: Path) -> str:
    """HEAD commit of ``root`` read from ``.git`` (``unknown`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(root: Path) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": git_revision(root),
        "nproc": os.cpu_count(),
        "platform": sys.platform,
    }


def write_record(path: Path, record: Mapping[str, object]) -> None:
    """Write a result record atomically (strict JSON)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True, allow_nan=False) + "\n")
    os.replace(tmp, path)


def read_record(path: Path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"not a benchmark result record: {path}")
    return doc
