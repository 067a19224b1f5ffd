"""Deterministic worker pool for the evaluation layer.

Every figure driver and design-space sweep in :mod:`repro.eval` reduces
to the same shape: map a pure, picklable task function over a list of
task descriptors and aggregate the results.  :func:`run_tasks` is that
map, with these guarantees:

* **Determinism** — results come back in task order regardless of worker
  count or completion order.  Each result is written into its task's
  slot, so ``run_tasks(fn, tasks, jobs=N)`` is element-for-element
  identical to ``[fn(t) for t in tasks]`` for every ``N``.  Task
  functions must not depend on hidden cross-task state; anything
  stochastic must derive its seed from the task descriptor (see
  :func:`repro.seeding.derive_seed`), never from scheduling.
* **One pool** — ``jobs=N`` forks N workers, each holding one duplex
  pipe.  The parent hands one cell at a time to an idle worker, so late
  cells balance load, and it detects a dead worker by EOF on its pipe.
* **Graceful fallback** — ``jobs=1`` (the default everywhere) runs
  in-process with no pool, no pickling and no forking; so does any
  platform without the ``fork`` start method (workers inherit warmed
  per-worker caches by forking, and spawn-based pools cannot execute
  tasks defined in unimportable ``__main__`` modules).
* **Fail fast** — the first failing cell aborts the map: in process its
  exception propagates unchanged; from a worker it is re-raised with its
  own type when it pickles (else as :class:`RuntimeError`), and a dead
  worker raises :class:`RuntimeError` naming the cell.

Workers warm their private trace cache (:class:`repro.eval.runner.TraceCache`)
either by inheriting the parent's cache through ``fork`` or via the
``warm`` argument, so a trace is generated at most once per worker no
matter how tasks are scheduled.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import sys
from multiprocessing import connection
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Progress callback signature: ``progress(done, total)``.
ProgressFn = Callable[[int, int], None]

#: Trace-warming spec: ``(workload, threads, ops_per_thread, seed)``.
WarmSpec = Tuple[str, int, int, int]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` knob: None/1 -> serial, <=0 -> all cores."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def pool_available() -> bool:
    """Whether this platform supports the fork-based worker pool."""
    try:
        return "fork" in mp.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def print_progress(prefix: str = "", stream=None) -> ProgressFn:
    """Progress callback printing ``prefix done/total`` lines (CLI use)."""

    out = stream if stream is not None else sys.stderr

    def report(done: int, total: int) -> None:
        print(f"{prefix}{done}/{total}", file=out, flush=True)

    return report


def _init_worker(warm: Tuple[WarmSpec, ...]) -> None:
    """Worker start-up: pre-generate traces into the worker's cache."""
    if warm:
        from repro.eval.runner import warm_trace_cache

        warm_trace_cache(warm)


class _ProgressGate:
    """Invoke the callback when crossing every ``log_every`` completions."""

    def __init__(self, progress: Optional[ProgressFn], total: int, log_every: int):
        self.progress = progress
        self.total = total
        self.log_every = max(1, log_every)
        self.done = 0

    def advance(self, n: int = 1) -> None:
        if self.progress is None:
            self.done += n
            return
        before = self.done // self.log_every
        self.done += n
        if self.done // self.log_every > before or self.done == self.total:
            self.progress(self.done, self.total)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(
    conn, fn: Callable, warm: Tuple[WarmSpec, ...], inherited: Sequence[Any]
) -> None:
    """Worker loop: recv (index, task), send (index, status, payload).

    An error's payload is ``(message, pickled exception or None)``.
    SIGINT is ignored so Ctrl-C in the parent's terminal (delivered to
    the whole foreground process group) does not kill workers mid-cell;
    the parent owns shutdown via the pipe (or SIGKILL when it fails).

    ``inherited`` are the parent-side pipe ends the fork copied into
    this worker (its own and its siblings').  They are closed first:
    then the parent is the only holder of this worker's far end, and a
    parent that dies without cleanup (SIGKILL) reads as EOF here.
    """
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _init_worker(warm)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        index, task = msg
        try:
            result = fn(task)
        except Exception as exc:
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = None
            reply = (index, "error", (f"{type(exc).__name__}: {exc}", blob))
        else:
            reply = (index, "ok", result)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


def _load_exception(blob: Optional[bytes]) -> Optional[BaseException]:
    """A worker's pickled exception, or None when it does not round-trip."""
    try:
        return pickle.loads(blob)
    except Exception:
        return None


class _Worker:
    """Parent-side handle of one worker process."""

    def __init__(
        self, ctx, fn: Callable, warm: Tuple[WarmSpec, ...], siblings: Sequence["_Worker"]
    ):
        self.conn, child = ctx.Pipe(duplex=True)
        inherited = [self.conn] + [w.conn for w in siblings]
        self.proc = ctx.Process(
            target=_worker_main, args=(child, fn, warm, inherited), daemon=True
        )
        self.proc.start()
        child.close()
        #: Index of the in-flight cell, or None.
        self.job: Optional[int] = None

    def assign(self, index: int, task: Any) -> None:
        self.job = index
        self.conn.send((index, task))

    def stop(self) -> None:
        """Ask the worker to exit after its current cell."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):  # pragma: no cover
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# The map
# ---------------------------------------------------------------------------


def run_tasks(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    jobs: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    log_every: int = 1,
    warm: Optional[Sequence[WarmSpec]] = None,
) -> List[R]:
    """Map ``fn`` over ``tasks``, optionally on the worker pool.

    Args:
        fn: a picklable (module-level) function of one task descriptor.
        tasks: picklable task descriptors; order defines result order.
        jobs: worker processes (1 = in-process serial, <=0 = all cores).
        progress: optional ``progress(done, total)`` callback.
        log_every: invoke ``progress`` every this many completed tasks
            (the final completion always reports).
        warm: trace specs pre-generated in each worker's cache (see
            :func:`repro.eval.runner.warm_trace_cache`).

    Returns:
        ``[fn(t) for t in tasks]`` — bit-identical to the serial run
        regardless of worker count or completion order.
    """
    items = list(tasks)
    gate = _ProgressGate(progress, len(items), log_every)
    n_jobs = min(resolve_jobs(jobs), len(items))
    if n_jobs > 1 and pool_available():
        return _run_pool(fn, items, n_jobs, tuple(warm or ()), gate)
    results = []
    for task in items:
        results.append(fn(task))
        gate.advance()
    return results


def _run_pool(
    fn: Callable,
    items: Sequence[Any],
    n_jobs: int,
    warm: Tuple[WarmSpec, ...],
    gate: _ProgressGate,
) -> List[Any]:
    """Fork-pool loop: one cell per idle worker, results slotted by index."""
    ctx = mp.get_context("fork")
    workers: List[_Worker] = []
    results: List[Any] = [None] * len(items)
    pending = iter(range(len(items)))
    busy = {}
    try:
        for _ in range(n_jobs):
            workers.append(_Worker(ctx, fn, warm, workers))
        for w in workers:
            index = next(pending)
            w.assign(index, items[index])
            busy[w.conn] = w
        while busy:
            for conn in connection.wait(list(busy)):
                w = busy.pop(conn)
                index = w.job
                try:
                    got_index, status, payload = conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-cell (os._exit, OOM kill, segfault).
                    w.kill()
                    raise RuntimeError(
                        f"cell {index}: worker exited (code {w.proc.exitcode})"
                    ) from None
                assert got_index == index, "worker answered the wrong cell"
                w.job = None
                if status != "ok":
                    message, blob = payload
                    exc = _load_exception(blob)
                    raise exc if exc is not None else RuntimeError(f"cell {index}: {message}")
                results[index] = payload
                gate.advance()
                index = next(pending, None)
                if index is not None:
                    w.assign(index, items[index])
                    busy[conn] = w
    finally:
        for w in workers:
            if w.job is None:
                w.stop()
        for w in workers:
            if w.job is not None:
                w.kill()  # the map is failing fast, or was interrupted
            else:
                w.proc.join(timeout=2.0)
                if w.proc.is_alive():  # pragma: no cover
                    w.kill()
    return results
