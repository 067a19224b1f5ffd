"""Sweep supervision policy: timeouts, retries, quarantine, checkpoints.

:func:`repro.eval.parallel.run_tasks` maps a task function over a task
list, in process or on its fork pool.  Unsupervised, that map fails
fast: the first cell error aborts it.  A long measurement campaign
needs more — one crashed worker must not kill the whole sweep, one hung
cell must not block it forever, and an interrupted 1000-cell run must
not restart from zero.  Passing ``supervise=`` a :class:`SupervisorConfig`
(or ``True``) gives the same map this discipline:

* **Per-cell wall-clock timeouts** — a cell that exceeds
  ``cell_timeout`` seconds has its worker killed and respawned; the cell
  is retried on another worker.  A timed map always runs on the pool,
  even at ``jobs=1`` (one forked worker), since only a separate process
  can be preempted.
* **Dead-worker detection** — a worker that exits (nonzero status,
  ``os._exit``, OOM kill) is detected by EOF on its pipe; its in-flight
  cell is retried and the worker replaced.
* **Bounded retry with exponential backoff** — each failing cell is
  retried up to ``max_retries`` times with ``backoff_base * 2**n``
  second delays (capped at ``backoff_cap``).
* **Quarantine** — a cell that exhausts its retry budget becomes a
  structured :class:`CellFailure` in its result slot instead of
  aborting the sweep; every healthy cell still completes.
* **Checkpoint journal** — with ``journal`` set, each finished cell is
  appended to a JSONL file keyed by a content hash of (task function,
  task descriptor).  After a crash or SIGKILL, ``resume=True`` replays
  completed cells from the journal and re-runs only the missing ones.
* **Graceful SIGINT/SIGTERM** — in-flight cells get ``grace`` seconds
  to drain, the journal is flushed, and :class:`SweepInterrupted` is
  raised so the CLI can print a "resume with --resume" hint instead of
  a traceback.

Determinism contract: the supervisor never re-seeds or re-orders work —
results are slotted by task index and every cell derives its seed from
its own task descriptor (:func:`repro.seeding.derive_seeds`), so a
retried, resumed, or quarantine-scarred run is bit-identical, cell for
surviving cell, to an uninterrupted serial run.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Result codec: (encode to JSON-able payload, decode payload back).
Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]


# ---------------------------------------------------------------------------
# Structured outcomes
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CellFailure:
    """A quarantined cell: all attempts failed; the sweep carried on.

    Occupies the cell's result slot, so aggregation code can skip it
    (``isinstance(cell, CellFailure)``) while every other cell keeps its
    position — the determinism contract of the surviving results.
    """

    index: int
    key: str
    kind: str  # "timeout" | "crash" | "error"
    attempts: int
    message: str

    def to_payload(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class SweepInterrupted(RuntimeError):
    """The sweep was stopped by SIGINT/SIGTERM after a graceful drain."""

    def __init__(self, completed: int, total: int, journal: Optional[Path]):
        self.completed = completed
        self.total = total
        self.journal = journal
        hint = f"; resume with --resume (journal: {journal})" if journal else ""
        super().__init__(
            f"sweep interrupted after {completed}/{total} cells{hint}"
        )


@dataclasses.dataclass
class SweepReport:
    """Counters of supervised runs (pass as :attr:`SupervisorConfig.report`)."""

    total: int = 0
    completed: int = 0
    resumed: int = 0
    retried: int = 0
    failures: List[CellFailure] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class SupervisorConfig:
    """Knobs of a supervised :func:`repro.eval.parallel.run_tasks` map."""

    #: Seconds a single cell may run before its worker is killed
    #: (None = no timeout).  Setting it runs even ``jobs=1`` on one
    #: forked worker, since an in-process cell cannot be preempted.
    cell_timeout: Optional[float] = None
    #: Retries per cell before quarantine.
    max_retries: int = 2
    #: First retry delay in seconds; doubles per attempt.
    backoff_base: float = 0.05
    #: Ceiling on the backoff delay.
    backoff_cap: float = 2.0
    #: Checkpoint journal: a path or an (already managed) instance.
    journal: Optional[Union[str, Path, "CheckpointJournal"]] = None
    #: Replay completed cells from the journal instead of re-running.
    resume: bool = False
    #: Seconds in-flight cells may drain after SIGINT/SIGTERM (the
    #: handlers are installed only on the main thread).
    grace: float = 5.0
    #: Optional :class:`SweepReport` accumulating counters across every
    #: run that uses this config (counters add up, so one report can
    #: cover several drivers sharing one journal).
    report: Optional["SweepReport"] = None

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ValueError(
                f"cell_timeout must be > 0 seconds, got {self.cell_timeout!r}"
            )
        for name in ("max_retries", "backoff_base", "backoff_cap", "grace"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")

    def backoff(self, attempts: int) -> float:
        """Delay before retrying a cell that has failed ``attempts`` times."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempts - 1))


# ---------------------------------------------------------------------------
# Content-hashed cell keys
# ---------------------------------------------------------------------------


def _canon(obj: Any) -> Any:
    """Canonical JSON-able form of a task descriptor (order-stable)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: _canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return _canon(obj.value)
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(
        f"task descriptor contains un-canonicalizable {type(obj).__name__}; "
        "checkpoint keys need plain data (tuples, dataclasses, primitives)"
    )


def cell_key(fn: Callable, task: Any) -> str:
    """Content hash identifying one (task function, task descriptor) cell.

    Stable across processes and sessions, so a resumed run maps journal
    records back to cells regardless of list position or worker count.
    """
    doc = {
        "fn": f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}",
        "task": _canon(task),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------


class CheckpointJournal:
    """Append-only JSONL record of finished cells, safe against SIGKILL.

    Every record is flushed and fsynced as it is written; the loader
    skips corrupt or truncated lines (at most the final record can be
    torn by a crash), so any journal that exists is resumable.  One
    journal may serve several supervised ``run_tasks`` calls (e.g. the
    three figure drivers of ``repro figures``) — keys are content
    hashes, so records never collide across task lists.
    """

    MAGIC = "repro-checkpoint-v1"

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None

    @property
    def is_open(self) -> bool:
        return self._fh is not None

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Key -> latest record; tolerant of torn/corrupt lines."""
        records: Dict[str, Dict[str, Any]] = {}
        try:
            text = self.path.read_text()
        except (FileNotFoundError, OSError):
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # torn final line from a crash mid-write
            if not isinstance(rec, dict):
                continue
            key = rec.get("key")
            if key:
                records[str(key)] = rec
        return records

    def open(self, fresh: bool = False) -> "CheckpointJournal":
        """Open for appending (``fresh`` starts a new journal). Idempotent."""
        if self._fh is not None:
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w" if fresh else "a")
        if fresh or self.path.stat().st_size == 0:
            self._write({"magic": self.MAGIC})
        return self

    def record(self, key: str, status: str, **fields: Any) -> None:
        """Append one cell outcome; durable before the call returns."""
        if self._fh is None:
            self.open()
        try:
            self._write({"key": key, "status": status, **fields})
        except TypeError:
            raise TypeError(
                "checkpoint payload is not JSON-serializable; pass a codec "
                "(encode/decode) to run_tasks for this result type"
            ) from None

    def _write(self, doc: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()
