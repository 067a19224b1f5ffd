"""Chaos tests for the crash-resilient supervisor (repro.eval.supervisor).

Planted-fault sweeps: cells that crash their worker (``os._exit``),
raise, or sleep past the cell timeout, in roughly 10 % of the grid.
The contract under test: the sweep completes, poison cells come back as
structured ``CellFailure`` results, and every surviving cell is
bit-identical to an uninterrupted clean serial run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.eval.supervisor import (
    CellFailure,
    CheckpointJournal,
    SupervisorConfig,
    SweepReport,
    cell_key,
)
from repro.eval.parallel import pool_available, run_tasks
from repro.eval.sweeps import sweep_grid

needs_pool = pytest.mark.skipif(
    not pool_available(), reason="platform lacks the fork start method"
)

#: Fast-retry config shared by the chaos tests.
FAST = dict(max_retries=1, backoff_base=0.001, backoff_cap=0.01)


def _pure(task):
    """The clean behaviour every surviving cell must reproduce."""
    kind, n = task
    return {"n": n, "sq": n * n}


def _chaos(task):
    """Planted-fault cell: poison kinds misbehave, the rest are pure."""
    kind, n = task
    if kind == "exit":
        os._exit(1)
    if kind == "boom":
        raise ValueError(f"planted failure {n}")
    if kind == "sleep":
        time.sleep(30)
    return _pure(task)


def _flaky(task):
    """Fails on the first attempt, succeeds once its flag file exists."""
    flag, n = task
    if not os.path.exists(flag):
        Path(flag).touch()
        raise RuntimeError("transient")
    return n * 7


def _nap(n):
    time.sleep(0.5)
    return n


def _chaos_tasks(n=40):
    """~10 % planted faults, one of each kind, spread through the grid."""
    tasks = [("ok", i) for i in range(n)]
    tasks[3] = ("exit", 3)
    tasks[17] = ("boom", 17)
    tasks[26] = ("exit", 26)
    tasks[33] = ("sleep", 33)
    return tasks


def test_cell_key_stable_and_content_sensitive():
    k1 = cell_key(_pure, ("ok", 1))
    assert k1 == cell_key(_pure, ("ok", 1))
    assert k1 != cell_key(_pure, ("ok", 2))
    assert k1 != cell_key(_chaos, ("ok", 1))
    # Lists and tuples canonicalize identically (JSON has no tuples).
    assert cell_key(_pure, ("ok", [1, 2])) == cell_key(_pure, ("ok", (1, 2)))


def test_serial_error_quarantined_and_survivors_exact(tmp_path):
    tasks = [("ok", i) for i in range(8)]
    tasks[2] = ("boom", 2)
    rep = SweepReport()
    out = run_tasks(
        _chaos, tasks, jobs=1, supervise=SupervisorConfig(**FAST, report=rep)
    )
    assert isinstance(out[2], CellFailure)
    assert out[2].kind == "error" and out[2].attempts == 2
    clean = [_pure(t) for t in tasks]
    assert [r for i, r in enumerate(out) if i != 2] == [
        c for i, c in enumerate(clean) if i != 2
    ]
    assert rep.completed == 8 and len(rep.failures) == 1


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("cell_timeout", 0, "cell_timeout must be > 0 seconds, got 0"),
        ("cell_timeout", -1.5, "cell_timeout must be > 0 seconds, got -1.5"),
        ("max_retries", -3, "max_retries must be >= 0, got -3"),
        ("backoff_base", -1.0, "backoff_base must be >= 0, got -1.0"),
        ("backoff_cap", -0.5, "backoff_cap must be >= 0, got -0.5"),
        ("grace", -2.0, "grace must be >= 0, got -2.0"),
    ],
)
def test_config_rejects_bad_knobs(field, value, message):
    with pytest.raises(ValueError) as err:
        SupervisorConfig(**{field: value})
    assert str(err.value) == message


def test_config_accepts_zero_retries_and_delays():
    cfg = SupervisorConfig(max_retries=0, backoff_base=0.0, backoff_cap=0.0, grace=0.0)
    assert cfg.backoff(3) == 0.0


@pytest.mark.parallel
@needs_pool
def test_cell_timeout_enforced_at_jobs_1():
    """A timed map forks one worker even at jobs=1, so cells can be preempted."""
    cfg = SupervisorConfig(cell_timeout=0.1, max_retries=0)
    start = time.monotonic()
    out = run_tasks(_nap, [1, 2], jobs=1, supervise=cfg)
    assert [type(r) for r in out] == [CellFailure, CellFailure]
    assert [r.kind for r in out] == ["timeout", "timeout"]
    assert time.monotonic() - start < 0.9  # neither 0.5 s nap ran out


def test_serial_retry_recovers_transient_failure(tmp_path):
    flag = str(tmp_path / "flag")
    out = run_tasks(
        _flaky, [(flag, 6)], jobs=1, supervise=SupervisorConfig(**FAST)
    )
    assert out == [42]


@pytest.mark.parallel
@needs_pool
def test_chaos_sweep_completes_with_bit_identical_survivors():
    tasks = _chaos_tasks()
    rep = SweepReport()
    cfg = SupervisorConfig(cell_timeout=2.0, **FAST, report=rep)
    out = run_tasks(_chaos, tasks, jobs=4, supervise=cfg)
    clean = [_pure(t) for t in tasks]

    failures = {i: r for i, r in enumerate(out) if isinstance(r, CellFailure)}
    assert set(failures) == {3, 17, 26, 33}
    assert failures[3].kind == "crash" and failures[26].kind == "crash"
    assert failures[17].kind == "error"
    assert failures[33].kind == "timeout"
    for i, r in enumerate(out):
        if i not in failures:
            assert r == clean[i]
    assert rep.completed == len(tasks)
    assert rep.retried >= 4  # every poison cell got its retry


@pytest.mark.parallel
@needs_pool
def test_run_tasks_supervise_delegation():
    tasks = _chaos_tasks()[:20]  # keeps the index-3 crash cell
    out = run_tasks(
        _chaos,
        tasks,
        jobs=3,
        supervise=SupervisorConfig(cell_timeout=2.0, **FAST),
    )
    assert isinstance(out[3], CellFailure)
    assert out[5] == _pure(("ok", 5))


def test_journal_resume_reruns_only_missing_cells(tmp_path):
    journal = tmp_path / "ck.jsonl"
    tasks = [("ok", i) for i in range(10)]
    first = run_tasks(
        _pure, tasks[:6], jobs=1, supervise=SupervisorConfig(journal=journal)
    )
    rep = SweepReport()
    full = run_tasks(
        _pure,
        tasks,
        jobs=1,
        supervise=SupervisorConfig(journal=journal, resume=True, report=rep),
    )
    assert full == [_pure(t) for t in tasks]
    assert full[:6] == first
    assert rep.resumed == 6 and rep.completed == 4


def test_journal_tolerates_torn_and_corrupt_lines(tmp_path):
    journal = tmp_path / "ck.jsonl"
    tasks = [("ok", i) for i in range(4)]
    run_tasks(_pure, tasks, jobs=1, supervise=SupervisorConfig(journal=journal))
    # Simulate a SIGKILL mid-write: garbage + a truncated record at EOF.
    with open(journal, "a") as fh:
        fh.write("not json at all\n")
        fh.write('{"key": "abcd", "status": "ok", "payl')
    rep = SweepReport()
    out = run_tasks(
        _pure,
        tasks,
        jobs=1,
        supervise=SupervisorConfig(journal=journal, resume=True, report=rep),
    )
    assert out == [_pure(t) for t in tasks]
    assert rep.resumed == 4


def test_quarantined_cell_retries_on_resume(tmp_path):
    journal = tmp_path / "ck.jsonl"
    flag = str(tmp_path / "flag")
    cfg = SupervisorConfig(journal=journal, max_retries=0, backoff_base=0.001)
    out = run_tasks(_flaky, [(flag, 2)], jobs=1, supervise=cfg)
    assert isinstance(out[0], CellFailure)
    # Failed records do not replay: the resume re-runs the cell, which
    # now succeeds (its flag file exists).
    cfg2 = SupervisorConfig(journal=journal, resume=True, max_retries=0)
    out2 = run_tasks(_flaky, [(flag, 2)], jobs=1, supervise=cfg2)
    assert out2 == [14]


@pytest.mark.parallel
@needs_pool
def test_supervised_sweep_grid_matches_plain(tmp_path, smoke_jobs):
    axes = {"arq_entries": [8, 32]}
    plain = sweep_grid(axes, workloads=("SG",), ops_per_thread=200)
    sup = sweep_grid(
        axes,
        workloads=("SG",),
        ops_per_thread=200,
        jobs=smoke_jobs,
        supervise=SupervisorConfig(journal=tmp_path / "ck.jsonl"),
    )
    assert sup == plain
    resumed = sweep_grid(
        axes,
        workloads=("SG",),
        ops_per_thread=200,
        jobs=smoke_jobs,
        supervise=SupervisorConfig(journal=tmp_path / "ck.jsonl", resume=True),
    )
    assert resumed == plain  # SweepPoint codec round-trips exactly


_KILL_PROG = """
import json, sys, time
from repro.eval.parallel import run_tasks
from repro.eval.supervisor import SupervisorConfig

def cell(n):
    time.sleep(0.08)
    return n * 3

cfg = SupervisorConfig(journal=sys.argv[1], resume=(sys.argv[2] == "resume"))
out = run_tasks(cell, list(range(24)), jobs=2, supervise=cfg)
print(json.dumps(out))
"""


@pytest.mark.parallel
@needs_pool
def test_sigkill_then_resume_completes(tmp_path):
    """SIGKILL mid-sweep; --resume re-runs only the missing cells."""
    journal = tmp_path / "ck.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_PROG, str(journal), "fresh"],
        stdout=subprocess.PIPE,
        env=env,
    )
    # Let some cells complete, then kill without any chance to clean up.
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        done = journal.exists() and journal.read_text().count('"status": "ok"')
        if done and done >= 4:
            break
        time.sleep(0.05)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10)
    assert proc.returncode == -signal.SIGKILL

    partial = journal.read_text().count('"status": "ok"')
    assert 0 < partial < 24

    out = subprocess.run(
        [sys.executable, "-c", _KILL_PROG, str(journal), "resume"],
        stdout=subprocess.PIPE,
        env=env,
        timeout=120,
        check=True,
    )
    assert json.loads(out.stdout) == [n * 3 for n in range(24)]


def test_sigterm_graceful_drain(tmp_path):
    """SIGTERM drains in-flight cells, flushes the journal, exits 130."""
    prog = """
import sys, time
from repro.eval.parallel import run_tasks
from repro.eval.supervisor import SupervisorConfig, SweepInterrupted

def cell(n):
    time.sleep(0.1)
    return n

cfg = SupervisorConfig(journal=sys.argv[1], grace=5.0)
try:
    run_tasks(cell, list(range(50)), jobs=2, supervise=cfg)
except SweepInterrupted as exc:
    print("interrupted", exc.completed, flush=True)
    sys.exit(130)
"""
    journal = tmp_path / "ck.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", prog, str(journal)],
        stdout=subprocess.PIPE,
        env=env,
    )
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if journal.exists() and journal.read_text().count('"status": "ok"') >= 2:
            break
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 130, out
    assert b"interrupted" in out
    # No traceback, and the journal holds a valid prefix of the sweep.
    recs = CheckpointJournal(journal).load()
    assert 0 < len(recs) < 50


def test_trace_cache_save_load_roundtrip(tmp_path):
    from repro.eval.runner import TraceCache, cached_trace

    cache = TraceCache(maxsize=8)
    key = ("SG", 2, 50, 2019)
    trace = cached_trace("SG", 2, 50, 2019)
    cache.get(key, lambda: trace)
    path = tmp_path / "traces.pkl"
    assert cache.save(path) == 1

    fresh = TraceCache(maxsize=8)
    assert fresh.load(path) == 1
    # A hit, not a regeneration: the factory must never run.
    got = fresh.get(key, lambda: (_ for _ in ()).throw(AssertionError("regenerated")))
    assert got == trace and fresh.hits == 1


def _unpickled():
    raise TypeError("a v1 record was unpickled")


class _V1Record:
    """Stands in for a record class whose pickled form no longer loads."""

    def __reduce__(self):
        return _unpickled, ()


def test_trace_cache_rejects_v1_snapshot_before_unpickling(tmp_path):
    import pickle

    from repro.eval.runner import TraceCache

    path = tmp_path / "v1.pkl"
    with open(path, "wb") as fh:
        doc = {"version": 1, "traces": {("SG", 2, 50, 2019): (_V1Record(),)}}
        pickle.dump(doc, fh)
    cache = TraceCache(maxsize=8)
    with pytest.raises(ValueError, match="unrecognized trace-cache snapshot"):
        cache.load(path)
    assert len(cache) == 0
