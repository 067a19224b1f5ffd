"""The ``snapshot()`` contract shared by every ``*Stats`` type.

:class:`StatsMixin` derives a plain-dict copy of a stats dataclass from
its fields once, so every ``metrics()`` view and the
:class:`repro.obs.metrics.MetricsRegistry` read stats the same way:
numbers and strings are copied as-is, dicts and lists are copied (a
:class:`collections.Counter` field becomes a plain dict), and a
:class:`repro.obs.metrics.Histogram` field becomes its own snapshot.
``SNAPSHOT_DERIVED`` names the derived properties (rates, means) that
ride along with the fields.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict, Tuple

from .metrics import Histogram

__all__ = ["StatsMixin"]


def _copy_value(value: Any) -> Any:
    if isinstance(value, Histogram):
        return value.snapshot()
    if isinstance(value, dict):
        return {k: _copy_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return list(value)
    return value


class StatsMixin:
    """Field-driven ``snapshot()`` for stats dataclasses."""

    __slots__ = ()

    #: Derived property names included in :meth:`snapshot`.
    SNAPSHOT_DERIVED: ClassVar[Tuple[str, ...]] = ()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy of every field (+ declared derived metrics)."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            out[f.name] = _copy_value(getattr(self, f.name))
        for name in self.SNAPSHOT_DERIVED:
            out[name] = getattr(self, name)
        return out
