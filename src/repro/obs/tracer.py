"""Cycle-stamped structured event tracing.

A tracer answers the question the flat counters cannot: *when* did
things happen inside a run — which cycle an ARQ entry allocated, merged
or popped, how full the builder pipeline was, when a link NAKed and
replayed, when a bank conflicted.  Events are (cycle, channel, name,
args) tuples in a bounded ring buffer (oldest events drop first, with a
drop counter), so tracing a million-request run costs O(capacity).

Tracing is **off by default**: the default ``Observers`` bundle holds
the module singleton :data:`NULL_TRACER`, whose ``enabled`` flag gates each
emit site, so the fault-free hot path does no argument packing and no
calls.  A run with tracing disabled is bit-identical to one with no
tracer compiled in at all — pinned by the regression suite — because the
tracer only ever *reads* simulation state.

Export targets:

* :meth:`EventTracer.to_chrome_trace` — Chrome ``traceEvents`` JSON
  (instant events, one virtual thread per channel) that loads directly
  in Perfetto / ``chrome://tracing``;
* :meth:`EventTracer.write_jsonl` — one JSON object per line for ad-hoc
  ``jq``/pandas processing.

Standard channels (components may add their own):

=========  ====================================================
``arq``    entry alloc / merge / fence_blocked / pop / fence
``builder`` stage occupancy at each pop
``link``   CRC error / NAK / retry / link_failed
``vault``  bank activate / conflict
=========  ====================================================
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

__all__ = [
    "NullTracer",
    "EventTracer",
    "NULL_TRACER",
    "TraceEvent",
]

#: (cycle, channel, name, args-or-None)
TraceEvent = Tuple[int, str, str, Optional[Dict[str, Any]]]

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 65536


class NullTracer:
    """The no-op tracer every component holds by default.

    ``enabled`` is ``False`` so instrumented hot paths skip argument
    packing entirely; ``emit`` exists (and does nothing) so cold paths
    may call it unconditionally.
    """

    __slots__ = ()
    enabled = False

    def emit(self, channel: str, name: str, cycle: int, **args: Any) -> None:
        """Discard the event."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTracer()"


#: Shared no-op instance; components default their ``tracer`` to this.
NULL_TRACER = NullTracer()


class EventTracer:
    """Bounded ring buffer of cycle-stamped events."""

    __slots__ = ("enabled", "capacity", "dropped", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.enabled = True
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)

    # -- recording ---------------------------------------------------------

    def emit(self, channel: str, name: str, cycle: int, **args: Any) -> None:
        """Record one event (oldest events drop when the ring is full)."""
        if not self.enabled:
            return
        if len(self._events) == self.capacity:
            if not self.dropped:
                warnings.warn(
                    f"trace ring buffer wrapped at {self.capacity} events; "
                    "oldest events are being dropped (raise --trace-capacity "
                    "to keep more)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.dropped += 1
        self._events.append((cycle, channel, name, args or None))

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self, channel: Optional[str] = None) -> List[TraceEvent]:
        """Buffered events in emit order, optionally one channel's."""
        if channel is None:
            return list(self._events)
        return [e for e in self._events if e[1] == channel]

    def channels(self) -> List[str]:
        return sorted({e[1] for e in self._events})

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome/Perfetto ``traceEvents`` document.

        Cycles map to the microsecond timestamps the format expects; one
        virtual thread per channel, named via ``thread_name`` metadata.
        """
        channels = self.channels()
        tids = {ch: i + 1 for i, ch in enumerate(channels)}
        events: List[Dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tids[ch],
                "args": {"name": ch},
            }
            for ch in channels
        ]
        for cycle, channel, name, args in self._events:
            ev: Dict[str, Any] = {
                "name": name,
                "cat": channel,
                "ph": "i",
                "ts": cycle,
                "pid": 0,
                "tid": tids[channel],
                "s": "t",
            }
            if args:
                ev["args"] = args
            events.append(ev)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs.tracer",
                "clock": "simulation cycles (as us)",
                "dropped_events": self.dropped,
            },
        }

    def write_chrome_trace(self, path: Union[str, Path]) -> int:
        """Write the Chrome-trace JSON atomically; returns the event count."""
        from repro.ioutil import atomic_write_text

        doc = self.to_chrome_trace()
        atomic_write_text(path, json.dumps(doc))
        return len(doc["traceEvents"])

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """One ``{"cycle","channel","name",...args}`` object per line.

        Written atomically (temp file + rename), so a crash mid-write
        never leaves a truncated trace at ``path``.
        """
        from repro.ioutil import atomic_open

        with atomic_open(path) as fh:
            for cycle, channel, name, args in self._events:
                row = {"cycle": cycle, "channel": channel, "name": name}
                if args:
                    row.update(args)
                fh.write(json.dumps(row) + "\n")
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventTracer(events={len(self._events)}/{self.capacity}, "
            f"dropped={self.dropped})"
        )

