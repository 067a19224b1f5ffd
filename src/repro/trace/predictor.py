"""Analytic coalescing-efficiency predictor.

The ARQ's behaviour on a trace is determined by the trace's row-reuse
profile under the window: a request merges iff its (row, type) key is
resident and the entry still has target capacity.  This module turns the
analyzer's sliding-window statistics into a prediction of the MAC's
coalescing efficiency *without* running the coalescer — useful for fast
workload screening, and a consistency check between the analyzer and the
engines (tested in ``tests/trace/test_predictor.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.request import RequestType


@dataclass(frozen=True, slots=True)
class EfficiencyPrediction:
    """Predicted coalescing outcome for a trace."""

    accesses: int
    predicted_merges: int
    capacity_evictions: int

    @property
    def predicted_efficiency(self) -> float:
        if not self.accesses:
            return 0.0
        return self.predicted_merges / self.accesses

    @property
    def predicted_packets(self) -> int:
        return self.accesses - self.predicted_merges


def predict_efficiency(
    records: Iterable[Tuple[int, ...]],
    config: Optional[MACConfig] = None,
) -> EfficiencyPrediction:
    """Predict the window engine's coalescing efficiency exactly.

    Replays only the *keys* of the trace through the window rules
    (FIFO eviction, per-entry target capacity, fences), counting merges
    without building FLIT maps, targets or packets — ~3x faster and
    allocation-free, and provably equivalent to the engine's efficiency
    (both implement the same merge predicate).  ``records`` may be
    ``TraceRecord`` tuples or a packed trace's int tuples: they are
    unpacked positionally and ``op`` is compared by value.
    """
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    cap = cfg.target_capacity
    window: "OrderedDict[int, int]" = OrderedDict()  # key -> target count
    accesses = 0
    merges = 0
    cap_evictions = 0

    row_bits = cfg.phys_addr_bits - cfg.row_offset_bits
    fence, atomic, store = RequestType.FENCE, RequestType.ATOMIC, RequestType.STORE
    for op, addr, _size, _tid, _core, _cycle in records:
        if op == fence:
            window.clear()
            continue
        accesses += 1
        if op == atomic:
            continue
        t_bit = 1 if op == store else 0
        key = (t_bit << row_bits) | codec.row_number(addr)
        count = window.get(key)
        if count is not None and count < cap:
            window[key] = count + 1
            merges += 1
            continue
        if count is not None:
            window.pop(key)
            cap_evictions += 1
        elif len(window) >= cfg.arq_entries:
            window.popitem(last=False)
        window[key] = 1

    return EfficiencyPrediction(
        accesses=accesses,
        predicted_merges=merges,
        capacity_evictions=cap_evictions,
    )
