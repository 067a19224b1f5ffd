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
* **Fail fast unless supervised** — without ``supervise`` the first
  failing cell aborts the map: in process its exception propagates
  unchanged; from a worker it is re-raised with its own type when it
  pickles (else as :class:`RuntimeError`), and a dead worker raises
  :class:`RuntimeError` naming the cell.  With ``supervise`` the map
  gets the timeouts, retries, quarantine and checkpoint journal of
  :mod:`repro.eval.supervisor`.

Workers warm their private trace cache (:class:`repro.eval.runner.TraceCache`)
either by inheriting the parent's cache through ``fork`` or via the
``warm`` argument, so a trace is generated at most once per worker no
matter how tasks are scheduled.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import pickle
import signal
import sys
import threading
import time
from collections import deque
from multiprocessing import connection
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from .supervisor import (
    CellFailure,
    CheckpointJournal,
    Codec,
    SupervisorConfig,
    SweepInterrupted,
    cell_key,
)

T = TypeVar("T")
R = TypeVar("R")

#: Progress callback signature: ``progress(done, total)``.
ProgressFn = Callable[[int, int], None]

#: Trace-warming spec: ``(workload, threads, ops_per_thread, seed)``.
WarmSpec = Tuple[str, int, int, int]

#: Settles one failed attempt: ``failed(index, attempts, kind, message,
#: exc)`` returns the backoff before a retry, or None once the cell is
#: settled (quarantined); unsupervised, it raises instead.
FailFn = Callable[[int, int, str, str, Optional[BaseException]], Optional[float]]


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
    the parent owns shutdown via the pipe (or SIGKILL on timeout).

    ``inherited`` are the parent-side pipe ends the fork copied into
    this worker (its own and its live siblings').  They are closed first:
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
        inherited = [self.conn] + [w.conn for w in siblings if not w.conn.closed]
        self.proc = ctx.Process(
            target=_worker_main, args=(child, fn, warm, inherited), daemon=True
        )
        self.proc.start()
        child.close()
        #: (index, attempts) of the in-flight cell, or None.
        self.job: Optional[Tuple[int, int]] = None
        #: Monotonic deadline of the in-flight cell (math.inf = none).
        self.deadline = float("inf")

    def assign(self, index: int, task: Any, attempts: int, timeout: Optional[float]):
        self.job = (index, attempts)
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else float("inf")
        )
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
    supervise: Union[None, bool, SupervisorConfig] = None,
    codec: Optional[Codec] = None,
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
        supervise: None/False fails fast on the first failing cell.  A
            :class:`repro.eval.supervisor.SupervisorConfig` (or ``True``
            for defaults) instead runs under supervision: per-cell
            timeouts, retry/quarantine, SIGINT/SIGTERM drain and the
            resumable checkpoint journal.  Quarantined cells come back
            as :class:`repro.eval.supervisor.CellFailure` in their slot.
        codec: ``(encode, decode)`` pair converting results to/from the
            JSON payloads of the checkpoint journal (supervised only).

    Returns:
        ``[fn(t) for t in tasks]`` — bit-identical to the serial run
        regardless of worker count or completion order.
    """
    cfg = SupervisorConfig() if supervise is True else supervise or None
    items = list(tasks)
    total = len(items)
    report = cfg.report if cfg is not None else None
    if report is not None:
        report.total += total
    if total == 0:
        return []
    encode, decode = codec if codec is not None else (lambda x: x, lambda x: x)

    # -- journal + resume prefill (supervised only) ----------------------------
    journal = cfg.journal if cfg is not None else None
    own_journal = journal is not None and not isinstance(journal, CheckpointJournal)
    if own_journal:
        journal = CheckpointJournal(journal)
    keys = [cell_key(fn, task) for task in items] if journal is not None else None
    results: List[Any] = [_UNRESOLVED] * total
    resumed = 0
    if journal is not None and cfg.resume:
        seen = journal.load()
        for i, key in enumerate(keys):
            rec = seen.get(key)
            if rec is not None and rec.get("status") == "ok":
                results[i] = decode(rec.get("payload"))
                resumed += 1
    if journal is not None and not journal.is_open:
        journal.open(fresh=not cfg.resume)
    if report is not None:
        report.resumed += resumed

    gate = _ProgressGate(progress, total, log_every)
    gate.advance(resumed)
    todo = [i for i in range(total) if results[i] is _UNRESOLVED]

    # -- graceful signal shutdown (supervised, main thread only) ---------------
    interrupted: List[int] = []
    installed: List[Tuple[int, Any]] = []
    if cfg is not None and threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            interrupted.append(signum)

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((sig, signal.signal(sig, _on_signal)))
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _finish(index: int, value: Any, status: str, **fields: Any) -> None:
        results[index] = value
        gate.advance()
        if report is not None:
            report.completed += 1
            if isinstance(value, CellFailure):
                report.failures.append(value)
        if journal is not None:
            payload = value.to_payload() if isinstance(value, CellFailure) else encode(value)
            journal.record(keys[index], status, payload=payload, **fields)

    def _failed(index, attempts, kind, message, exc=None):
        """Fail fast, or return the retry backoff, or quarantine (FailFn)."""
        if cfg is None:
            raise exc if exc is not None else RuntimeError(f"cell {index}: {message}")
        if attempts <= cfg.max_retries:
            if report is not None:
                report.retried += 1
            return cfg.backoff(attempts)
        failure = CellFailure(index, cell_key(fn, items[index]), kind, attempts, message)
        _finish(index, failure, "failed", kind=kind, attempts=attempts)
        return None

    try:
        timeout = cfg.cell_timeout if cfg is not None else None
        n_jobs = min(resolve_jobs(jobs), len(todo))
        if todo and (n_jobs > 1 or timeout is not None) and pool_available():
            grace = cfg.grace if cfg is not None else 0.0
            _run_pool(
                fn, items, todo, n_jobs, warm, timeout, grace,
                interrupted, _finish, _failed,
            )
        else:
            _run_serial(fn, items, todo, interrupted, _finish, _failed)
        if interrupted:
            completed = sum(1 for r in results if r is not _UNRESOLVED)
            raise SweepInterrupted(
                completed, total, journal.path if journal is not None else None
            )
    finally:
        for sig, old in installed:
            signal.signal(sig, old)
        if own_journal:
            journal.close()
    return results


#: Placeholder marking result slots not yet produced (never returned).
_UNRESOLVED = object()


def _run_serial(
    fn: Callable,
    items: Sequence[Any],
    todo: Sequence[int],
    interrupted: List[int],
    finish: Callable,
    failed: FailFn,
) -> None:
    """In-process loop: no pool, no pickling, no preemption."""
    for index in todo:
        if interrupted:
            return
        attempts = 0
        while True:
            attempts += 1
            try:
                result = fn(items[index])
            except Exception as exc:
                delay = failed(index, attempts, "error", f"{type(exc).__name__}: {exc}", exc)
                if delay is None:
                    break
                time.sleep(delay)
            else:
                finish(index, result, "ok")
                break


def _run_pool(
    fn: Callable,
    items: Sequence[Any],
    todo: Sequence[int],
    n_jobs: int,
    warm: Optional[Sequence[WarmSpec]],
    timeout: Optional[float],
    grace: float,
    interrupted: List[int],
    finish: Callable,
    failed: FailFn,
) -> None:
    """Fork-pool loop: per-cell dispatch, deadlines, dead-worker respawn, backoff."""
    ctx = mp.get_context("fork")
    warm_t = tuple(warm or ())
    workers: List[_Worker] = []
    for _ in range(n_jobs):
        workers.append(_Worker(ctx, fn, warm_t, workers))
    pending: deque = deque((i, 0) for i in todo)
    delayed: List[Tuple[float, int, Tuple[int, int]]] = []
    seq = 0
    outstanding = len(todo)
    drain_deadline: Optional[float] = None

    def _settle(index: int, attempts: int, kind: str, message: str, exc=None):
        nonlocal seq, outstanding
        attempts += 1
        delay = failed(index, attempts, kind, message, exc)
        if delay is None:
            outstanding -= 1
        else:
            seq += 1
            heapq.heappush(delayed, (time.monotonic() + delay, seq, (index, attempts)))

    def _lose(worker: _Worker, kind: str, message: Optional[str] = None) -> None:
        """Kill ``worker`` (dead or overdue), settle its cell, respawn it."""
        index, attempts = worker.job
        worker.kill()
        _settle(
            index, attempts, kind,
            message or f"worker exited (code {worker.proc.exitcode})",
        )
        workers[workers.index(worker)] = _Worker(ctx, fn, warm_t, workers)

    try:
        while outstanding > 0:
            now = time.monotonic()
            if interrupted and drain_deadline is None:
                drain_deadline = now + grace
            # Promote delayed retries whose backoff has elapsed.
            while delayed and delayed[0][0] <= now:
                pending.append(heapq.heappop(delayed)[2])
            # Dispatch to idle workers (not while draining an interrupt).
            if not interrupted:
                for w in workers:
                    if w.job is None and pending:
                        index, attempts = pending.popleft()
                        w.assign(index, items[index], attempts, timeout)
            busy = [w for w in workers if w.job is not None]
            if interrupted:
                if not busy or now >= drain_deadline:
                    return  # journal is already flushed per record
            elif not busy:
                # Every outstanding cell is waiting out a retry backoff.
                time.sleep(max(0.0, delayed[0][0] - now))
                continue
            # Wait for results, bounded so deadlines/signals stay live.
            wait_until = min(w.deadline for w in busy)
            if delayed:
                wait_until = min(wait_until, delayed[0][0])
            if drain_deadline is not None:
                wait_until = min(wait_until, drain_deadline)
            ready = connection.wait(
                [w.conn for w in busy], max(0.0, min(wait_until - now, 0.25))
            )
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                w = by_conn[conn]
                try:
                    got_index, status, payload = conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-cell (os._exit, OOM kill, segfault).
                    _lose(w, "crash")
                    continue
                index, attempts = w.job
                w.job = None
                w.deadline = float("inf")
                assert got_index == index, "worker answered the wrong cell"
                if status == "ok":
                    finish(index, payload, "ok")
                    outstanding -= 1
                else:
                    message, blob = payload
                    _settle(index, attempts, "error", message, _load_exception(blob))
            # Enforce per-cell deadlines on workers that stayed silent.
            if timeout is not None:
                now = time.monotonic()
                for w in list(workers):
                    if w.job is not None and now >= w.deadline:
                        _lose(w, "timeout", f"cell exceeded {timeout:.3g}s")
    finally:
        for w in workers:
            if w.job is None and w.proc.is_alive():
                w.stop()
        for w in workers:
            if w.job is not None:
                w.kill()  # interrupted mid-cell, or the map is failing fast
            else:
                w.proc.join(timeout=2.0)
                if w.proc.is_alive():  # pragma: no cover
                    w.kill()
