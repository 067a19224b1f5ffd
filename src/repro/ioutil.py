"""Crash-safe artifact writes (write-temp + ``os.replace``).

Every artifact the toolkit persists — ``BENCH_<name>.json`` bench
records, ``repro run --metrics-out``/``--trace-out`` exports, ``repro
analyze --report-out`` reports — goes through
these helpers, so a crash (or SIGKILL) mid-write can never leave a
corrupt or truncated file behind: readers either see the complete
previous version or the complete new one, never a torn intermediate.

The recipe is the standard POSIX one: write the full payload to a
temporary file *in the destination directory* (``os.replace`` is only
atomic within one filesystem), fsync it, then rename over the target.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Union

PathLike = Union[str, Path]


@contextmanager
def atomic_open(
    path: PathLike, mode: str = "w", encoding: str = "utf-8"
) -> Iterator[Any]:
    """Open a temp file for writing; atomically rename onto ``path`` on success.

    On any exception the temp file is removed and the destination is left
    untouched.  ``mode`` must be a write mode (``"w"`` or ``"wb"``).
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open only supports write modes, got {mode!r}")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(
            fd, mode, encoding=None if "b" in mode else encoding
        ) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``)."""
    with atomic_open(path, "w", encoding=encoding) as fh:
        fh.write(text)
