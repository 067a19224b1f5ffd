"""Tests for the deterministic process-pool executor (repro.eval.parallel)."""

import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.eval.parallel import (
    _ProgressGate,
    pool_available,
    print_progress,
    resolve_jobs,
    run_tasks,
)
from repro.eval.sweeps import sweep_grid

needs_pool = pytest.mark.skipif(
    not pool_available(), reason="platform lacks the fork start method"
)


def _square(x):
    return x * x


def _describe(task):
    # Mixed-type result; exercises result pickling beyond plain ints.
    name, value = task
    return {"name": name, "value": value, "tag": f"{name}:{value}"}


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # lambdas do not pickle


class _NeedsTwoArgs(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")  # pickles, but cannot be rebuilt


def _fail_on_2(x):
    if x == 2:
        raise ValueError(f"bad cell {x}")
    return x


def _unpicklable_fail_on_2(x):
    if x == 2:
        raise _Unpicklable("no pickle")
    return x


def _rebuild_fail_on_2(x):
    if x == 2:
        raise _NeedsTwoArgs("p", "q")
    return x


def _exit_on_2(x):
    if x == 2:
        os._exit(3)
    return x


def _sigint_handler(_):
    return signal.getsignal(signal.SIGINT)


def test_resolve_jobs_semantics():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(-1) >= 1


def test_run_tasks_empty():
    assert run_tasks(_square, []) == []
    assert run_tasks(_square, [], jobs=4) == []


def test_run_tasks_serial_preserves_order():
    assert run_tasks(_square, range(10)) == [x * x for x in range(10)]


@pytest.mark.parallel
@needs_pool
def test_run_tasks_pool_matches_serial(smoke_jobs):
    tasks = list(range(23))  # deliberately not a multiple of any chunk size
    serial = run_tasks(_square, tasks, jobs=1)
    pooled = run_tasks(_square, tasks, jobs=smoke_jobs)
    assert pooled == serial


@pytest.mark.parallel
@needs_pool
def test_run_tasks_pool_structured_results(smoke_jobs):
    tasks = [("w", i) for i in range(9)]
    serial = run_tasks(_describe, tasks, jobs=1)
    pooled = run_tasks(_describe, tasks, jobs=smoke_jobs)
    assert pooled == serial


@pytest.mark.parallel
@needs_pool
def test_jobs_exceeding_tasks_is_fine(smoke_jobs):
    # More workers than tasks must not hang or drop results.
    assert run_tasks(_square, [3, 4], jobs=max(smoke_jobs, 8)) == [9, 16]


def test_unsupervised_serial_propagates_cell_exception():
    with pytest.raises(ValueError, match="^bad cell 2$"):
        run_tasks(_fail_on_2, range(5), jobs=1)


def test_unsupervised_serial_installs_no_signal_handler():
    before = signal.getsignal(signal.SIGINT)
    assert run_tasks(_sigint_handler, [0], jobs=1) == [before]
    # The probe can tell: a supervised map does install its handler.
    assert run_tasks(_sigint_handler, [0], jobs=1, supervise=True) != [before]
    assert signal.getsignal(signal.SIGINT) is before


@pytest.mark.parallel
@needs_pool
def test_unsupervised_pool_reraises_cell_exception(smoke_jobs):
    with pytest.raises(ValueError, match="^bad cell 2$"):
        run_tasks(_fail_on_2, range(8), jobs=max(smoke_jobs, 2))


@pytest.mark.parallel
@needs_pool
@pytest.mark.parametrize(
    "fn,message",
    [
        (_unpicklable_fail_on_2, "cell 2: _Unpicklable: no pickle"),
        (_rebuild_fail_on_2, "cell 2: _NeedsTwoArgs: p/q"),
    ],
)
def test_unsupervised_pool_wraps_exception_that_cannot_travel(smoke_jobs, fn, message):
    with pytest.raises(RuntimeError) as err:
        run_tasks(fn, range(8), jobs=max(smoke_jobs, 2))
    assert str(err.value) == message


@pytest.mark.parallel
@needs_pool
def test_unsupervised_pool_dead_worker_names_cell(smoke_jobs):
    with pytest.raises(RuntimeError) as err:
        run_tasks(_exit_on_2, range(8), jobs=max(smoke_jobs, 2))
    assert str(err.value) == "cell 2: worker exited (code 3)"


def test_progress_gate_log_every():
    seen = []
    gate = _ProgressGate(lambda done, total: seen.append((done, total)), 10, 3)
    for _ in range(10):
        gate.advance()
    # Fires when crossing each multiple of 3 and at the final completion.
    assert seen == [(3, 10), (6, 10), (9, 10), (10, 10)]


def test_progress_gate_chunked_advance():
    seen = []
    gate = _ProgressGate(lambda done, total: seen.append(done), 12, 5)
    gate.advance(4)  # below first threshold
    gate.advance(4)  # crosses 5
    gate.advance(4)  # crosses 10 and completes
    assert seen == [8, 12]


def test_run_tasks_serial_progress():
    seen = []
    run_tasks(_square, range(6), progress=lambda d, t: seen.append((d, t)), log_every=2)
    assert seen == [(2, 6), (4, 6), (6, 6)]


def test_print_progress_format():
    buf = io.StringIO()
    report = print_progress(prefix="fig10: ", stream=buf)
    report(4, 27)
    assert buf.getvalue() == "fig10: 4/27\n"


# Acceptance criterion: a pooled sweep is bit-identical to the serial one.
_AXES = {"arq_entries": [8, 32], "row_bytes": [256, 512]}


@pytest.mark.parallel
@needs_pool
def test_sweep_grid_jobs4_bit_identical_to_serial():
    serial = sweep_grid(_AXES, threads=2, ops_per_thread=200, jobs=1)
    pooled = sweep_grid(_AXES, threads=2, ops_per_thread=200, jobs=4)
    assert len(serial) == len(pooled) == 4
    for a, b in zip(serial, pooled):
        assert a == b  # frozen dataclasses: exact field-for-field equality


@pytest.mark.parallel
@needs_pool
def test_sweep_grid_progress_reports_total(smoke_jobs):
    seen = []
    sweep_grid(
        {"arq_entries": [8, 32]},
        threads=2,
        ops_per_thread=100,
        jobs=smoke_jobs,
        progress=lambda d, t: seen.append((d, t)),
    )
    assert seen and seen[-1] == (2, 2)


_ORPHAN_PROG = """
import os, sys, time
from repro.eval.parallel import run_tasks

def cell(n):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(0.05)
    return n

run_tasks(cell, list(range(400)), jobs=2)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an exited zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs: fall back to a probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.parallel
@needs_pool
def test_sigkilled_parent_leaves_no_workers(tmp_path):
    """Workers of a SIGKILLed ``jobs=2`` map exit on their own."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_PROG, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 30.0
        while len(os.listdir(tmp_path)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        workers = [int(name) for name in os.listdir(tmp_path)]
        assert len(workers) == 2, f"expected two workers, saw {workers}"
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    deadline = time.monotonic() + 5.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in workers if _running(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert not alive, f"workers {alive} outlived their SIGKILLed parent"
