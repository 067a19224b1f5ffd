"""Per-site fault and recovery counters.

One :class:`FaultStats` instance is shared by the injector (which
records *injected* events) and the recovery layers (which record
*protocol* events: CRC failures, retries, NAKs, timeouts, re-issues,
suppressed duplicates).  Counters are keyed ``site -> event -> count``
where a site is a string like ``link0.req``, ``vault3`` or ``response``,
so reports can show exactly where errors landed and what it cost to
recover from them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class FaultStats:
    """Nested ``site -> event -> count`` counters."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, Dict[str, int]] = {}

    def record(self, site: str, event: str, n: int = 1) -> None:
        """Add ``n`` occurrences of ``event`` at ``site``."""
        bucket = self.counters.setdefault(site, {})
        bucket[event] = bucket.get(event, 0) + n

    def site(self, site: str) -> Dict[str, int]:
        """Counters of one site (empty dict if nothing recorded)."""
        return dict(self.counters.get(site, {}))

    def total(self, event: str) -> int:
        """Sum of ``event`` across every site."""
        return sum(bucket.get(event, 0) for bucket in self.counters.values())

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Deep copy suitable for serialization."""
        return {site: dict(bucket) for site, bucket in self.counters.items()}

    def rows(self) -> List[Tuple[str, str, int]]:
        """Sorted ``(site, event, count)`` rows for report tables."""
        out = [
            (site, event, count)
            for site, bucket in self.counters.items()
            for event, count in bucket.items()
        ]
        out.sort()
        return out

    @property
    def empty(self) -> bool:
        return not self.counters

    # -- registry source (hand-written: not a dataclass) -------------------

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return self.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        events = sum(len(b) for b in self.counters.values())
        return f"FaultStats(sites={len(self.counters)}, events={events})"
