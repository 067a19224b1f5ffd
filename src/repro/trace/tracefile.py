"""Trace file IO — text and binary formats.

The text format is one record per line::

    <OP> <hex addr> <size> <tid> <core> <cycle>

e.g. ``LD 0x7f3a10 8 3 1 4242``.  The binary format packs each record as
a little-endian struct (1 B op, 8 B addr, 2 B size, 2 B tid, 2 B core,
8 B cycle = 23 B/record) — compact enough to keep multi-million-request
traces on disk for reproducible runs.  Paths ending in ``.gz`` are
transparently gzip-compressed in either format.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from repro.core.request import MAX_TID, RequestType

from .record import OP_BY_NAME, OP_NAMES, TraceRecord

_BIN = struct.Struct("<BQHHHQ")
_MAGIC = b"MACTRC1\n"

PathLike = Union[str, Path]


# -- text format ------------------------------------------------------------


def _open(path: PathLike, mode: str) -> IO:
    """Open a trace file, transparently gzipped for .gz paths."""
    if str(path).endswith(".gz"):
        if "b" in mode:
            return gzip.open(path, mode)
        return gzip.open(path, mode + "t", encoding="ascii")
    if "b" in mode:
        return open(path, mode)
    return open(path, mode, encoding="ascii")


def dump_text(records: Iterable[TraceRecord], path: PathLike) -> int:
    """Write a text trace; returns the record count."""
    n = 0
    with _open(path, "w") as fh:
        for rec in records:
            fh.write(
                f"{OP_NAMES[rec.op]} {rec.addr:#x} {rec.size} "
                f"{rec.tid} {rec.core} {rec.cycle}\n"
            )
            n += 1
    return n


def load_text(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a text trace (blank lines / # comments skipped).

    A malformed line raises ``ValueError`` naming the file and line,
    including a TID outside the 16-bit field (the binary format's 2 B
    TID cannot hold one).
    """
    with _open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            op = OP_BY_NAME.get(parts[0])
            if op is None:
                raise ValueError(f"{path}:{lineno}: unknown op {parts[0]!r}")
            tid = int(parts[3])
            if not 0 <= tid <= MAX_TID:
                raise ValueError(f"{path}:{lineno}: tid {tid} outside 0..{MAX_TID}")
            yield TraceRecord(
                op, int(parts[1], 16), int(parts[2]), tid, int(parts[4]), int(parts[5])
            )


# -- binary format -------------------------------------------------------------


def dump_binary(records: Iterable[TraceRecord], path: PathLike) -> int:
    """Write a binary trace; returns the record count."""
    n = 0
    with _open(path, "wb") as fh:
        fh.write(_MAGIC)
        for rec in records:
            fh.write(
                _BIN.pack(rec.op.value, rec.addr, rec.size, rec.tid, rec.core, rec.cycle)
            )
            n += 1
    return n


def load_binary(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a binary trace."""
    with _open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a MAC binary trace")
        while True:
            blob = fh.read(_BIN.size)
            if not blob:
                break
            if len(blob) != _BIN.size:
                raise ValueError(f"{path}: truncated record at EOF")
            op, addr, size, tid, core, cycle = _BIN.unpack(blob)
            yield TraceRecord(RequestType(op), addr, size, tid, core, cycle)


def dump(records: Iterable[TraceRecord], path: PathLike) -> int:
    """Format-dispatching writer: .trc/.trc.gz -> binary, else text."""
    if str(path).endswith((".trc", ".trc.gz")):
        return dump_binary(records, path)
    return dump_text(records, path)


def load(path: PathLike) -> Iterator[TraceRecord]:
    """Format-dispatching reader (sniffs the binary magic)."""
    with _open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    if head == _MAGIC:
        return load_binary(path)
    return load_text(path)
