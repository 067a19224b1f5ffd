"""Evaluation metrics — Equations 1-3 and the derived quantities.

Every number reported in section 5.3 derives from these definitions:

* :func:`bandwidth_efficiency` — Eq. 1 (Fig. 3, Fig. 13);
* :func:`coalescing_efficiency` — Eq. 3 under the reduction-fraction
  reading (Figs. 10/11; see DESIGN.md section 3);
* :func:`requests_per_cycle` — Eq. 2 (Fig. 9);
* :func:`speedup` — Fig. 17's latency reduction.
"""

from __future__ import annotations

from repro.core.packet import CONTROL_BYTES_PER_ACCESS

#: HMC 2.1 request payload sizes (B) the protocol supports.
HMC_REQUEST_SIZES = (16, 32, 48, 64, 80, 96, 112, 128, 256)


def bandwidth_efficiency(request_bytes: int, overhead_bytes: int = CONTROL_BYTES_PER_ACCESS) -> float:
    """Eq. 1: payload fraction of a request/response exchange.

    >>> round(bandwidth_efficiency(16), 4)
    0.3333
    >>> round(bandwidth_efficiency(256), 4)
    0.8889
    """
    if request_bytes <= 0:
        raise ValueError("request size must be positive")
    if overhead_bytes < 0:
        raise ValueError("overhead must be non-negative")
    return request_bytes / (request_bytes + overhead_bytes)


def control_overhead_fraction(request_bytes: int, overhead_bytes: int = CONTROL_BYTES_PER_ACCESS) -> float:
    """1 - Eq. 1: the control fraction plotted in Fig. 3."""
    return 1.0 - bandwidth_efficiency(request_bytes, overhead_bytes)


def coalescing_efficiency(raw_requests: int, coalesced_requests: int) -> float:
    """Eq. 3 (reduction reading): fraction of raw requests eliminated."""
    if raw_requests < 0 or coalesced_requests < 0:
        raise ValueError("counts must be non-negative")
    if coalesced_requests > raw_requests:
        raise ValueError("cannot emit more packets than raw requests")
    if raw_requests == 0:
        return 0.0
    return 1.0 - coalesced_requests / raw_requests


def requests_per_cycle(
    ipc: float, rpi: float, cores: int, mem_access_rate: float
) -> float:
    """Eq. 2: raw requests per cycle offered to the MAC."""
    if min(ipc, rpi, mem_access_rate) <= 0 or cores < 1:
        raise ValueError("all factors must be positive")
    return ipc * rpi * cores * mem_access_rate


def speedup(latency_without: float, latency_with: float) -> float:
    """Fig. 17's gain metric: fraction by which latency is reduced."""
    if latency_without <= 0:
        raise ValueError("baseline latency must be positive")
    return 1.0 - latency_with / latency_without
