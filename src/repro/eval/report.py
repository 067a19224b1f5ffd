"""Plain-text table rendering for benches and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table (floats rendered to 4 significant places)."""

    def cell(v: object) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    srows = [[cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in srows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def pct(x: float) -> str:
    """0.5286 -> '52.86%'."""
    return f"{100 * x:.2f}%"


def human_bytes(n: float) -> str:
    """Binary-prefixed byte count."""
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.2f} TiB"
