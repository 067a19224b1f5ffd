"""Serialized full-duplex HMC link model, with optional retry protocol.

Each link is modelled as two independent serialization channels (request
and response directions) with a fixed flight latency.  Serializing one
16 B FLIT costs ``cycles_per_flit``; a packet occupies the channel for
its full FLIT count, so link bandwidth is an explicit bottleneck under
heavy small-packet traffic — the effect the MAC exists to mitigate.

When a :class:`repro.faults.FaultInjector` is attached (see
:meth:`Link.attach_faults`), each channel additionally models the
HMC-spec link-level robustness machinery:

* every packet carries a sequence number and a tail CRC; the receiver
  checks the CRC on arrival and NAKs corrupted packets;
* the sender holds unacked packets in a bounded *retry buffer* and
  replays on NAK (or on a lost ACK) with exponential backoff, up to a
  configurable retry limit — beyond it the link is declared dead and
  :class:`LinkFailedError` is raised so the device can steer traffic to
  the remaining links;
* token-based flow control bounds the FLITs in flight towards the
  receiver's input buffer, so replays cannot livelock the channel;
* the receiver delivers packets exactly once, in sequence order, and
  silently re-acks duplicates created by lost ACKs.

Without an injector the original single-attempt fast path runs and the
channel is cycle-identical to the fault-free model.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.attribution import StallCause
from ..obs.observers import NO_OBSERVERS, Observers
from .timing import HMCTiming

#: Cap on the exponential-backoff shift so huge retry limits cannot
#: overflow into absurd waits (8 << 16 ~ half a million cycles).
_MAX_BACKOFF_SHIFT = 16


class LinkFailedError(RuntimeError):
    """A link channel exhausted its retry budget or was scheduled dead."""

    def __init__(self, link_index: int, direction: str, cycle: int, reason: str):
        self.link_index = link_index
        self.direction = direction
        self.cycle = cycle
        self.reason = reason
        super().__init__(
            f"link {link_index} {direction} channel failed at cycle {cycle}: {reason}"
        )


class CreditPool:
    """Bounded credit pool with timed returns.

    Used twice per channel: as the receiver's token pool (flow control)
    and as the sender's retry-buffer space.  ``acquire`` advances the
    requested start cycle until enough credits have returned, which is
    how buffer backpressure turns into link stall cycles in the
    event-timed model.
    """

    __slots__ = ("capacity", "available", "_returns")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("credit pool capacity must be positive")
        self.capacity = capacity
        self.available = capacity
        self._returns: List[Tuple[int, int]] = []

    def _reclaim(self, cycle: int) -> None:
        while self._returns and self._returns[0][0] <= cycle:
            self.available += self._returns.pop(0)[1]

    @property
    def queued_returns(self) -> int:
        """Credits scheduled to return but not yet reclaimed.

        ``available + queued_returns == capacity`` at all times — the
        token-conservation invariant the simulation sanitizer checks.
        """
        return sum(n for _, n in self._returns)

    def acquire(self, start: int, amount: int) -> int:
        """Earliest cycle >= ``start`` at which ``amount`` credits are held."""
        if amount > self.capacity:
            raise ValueError(
                f"packet needs {amount} credits but pool holds only {self.capacity}"
            )
        self._reclaim(start)
        while self.available < amount:
            at, n = self._returns.pop(0)
            start = max(start, at)
            self.available += n
        self.available -= amount
        return start

    def release(self, cycle: int, amount: int) -> None:
        """Return ``amount`` credits at ``cycle``."""
        insort(self._returns, (cycle, amount))


class RetryState:
    """Sender + receiver state of the retry protocol for one channel."""

    __slots__ = (
        "injector",
        "cfg",
        "link_index",
        "direction",
        "site",
        "tokens",
        "retry_buffer",
        "next_seq",
        "expected_seq",
        "delivered",
        "crc_errors",
        "naks",
        "retries",
        "duplicates",
        "stall_cycles",
        "failed",
        "failed_cycle",
    )

    def __init__(self, injector, cfg, link_index: int, direction: str) -> None:
        self.injector = injector
        self.cfg = cfg
        self.link_index = link_index
        self.direction = direction
        self.site = f"link{link_index}.{direction}"
        self.tokens = CreditPool(cfg.link_tokens)
        self.retry_buffer = CreditPool(cfg.retry_buffer_flits)
        #: Sender-side sequence counter stamped on each packet.
        self.next_seq = 0
        #: Receiver-side next in-order sequence number.
        self.expected_seq = 0
        #: Receiver delivery log: (seq, arrival cycle), exactly once each.
        self.delivered: List[Tuple[int, int]] = []
        self.crc_errors = 0
        self.naks = 0
        self.retries = 0
        self.duplicates = 0
        self.stall_cycles = 0
        self.failed = False
        self.failed_cycle = -1

    def fail(self, cycle: int, reason: str) -> LinkFailedError:
        self.failed = True
        self.failed_cycle = cycle
        self.injector.stats.record(self.site, "link_failed")
        return LinkFailedError(self.link_index, self.direction, cycle, reason)

    def record(self, event: str, n: int = 1) -> None:
        self.injector.stats.record(self.site, event, n)


@dataclass(slots=True)
class LinkChannel:
    """One direction of one link."""

    timing: HMCTiming
    ready_cycle: int = 0
    flits: int = 0
    packets: int = 0
    busy_cycles: int = 0
    #: Retry-protocol state; None = fault-free fast path.
    retry: Optional[RetryState] = None
    #: Event tracer and attribution collector, bound from the link's
    #: :class:`Observers` bundle (no-ops unless a run attaches them).
    tracer: object = NO_OBSERVERS.tracer
    attrib: object = NO_OBSERVERS.attrib
    #: Stall-site label, e.g. ``link0.req`` (set by :class:`Link`).
    site: str = "link"

    def transmit(self, arrival: int, nflits: int) -> int:
        """Serialize ``nflits`` starting no earlier than ``arrival``.

        Returns the cycle the last FLIT lands on the far side (ser time +
        flight latency).  With a retry state attached the landing cycle
        is that of the first *intact* arrival, and the channel stays busy
        through any replays.
        """
        if nflits < 1:
            raise ValueError("packets carry at least one FLIT")
        if self.retry is not None:
            return self._transmit_reliable(arrival, nflits)
        ready = self.ready_cycle
        start = arrival if arrival > ready else ready
        ser = nflits * self.timing.cycles_per_flit
        self.ready_cycle = start + ser
        self.flits += nflits
        self.packets += 1
        self.busy_cycles += ser
        if self.attrib.enabled and start > arrival:
            self.attrib.stall_span(self.site, StallCause.LINK_BUSY, arrival, start)
        return start + ser + self.timing.link_latency

    def _transmit_reliable(self, arrival: int, nflits: int) -> int:
        """CRC-checked, sequence-numbered, token-governed transmission."""
        rs = self.retry
        inj = rs.injector
        cfg = rs.cfg
        lat = self.timing.link_latency
        if rs.failed:
            raise LinkFailedError(
                rs.link_index, rs.direction, rs.failed_cycle, "link previously failed"
            )
        start0 = max(arrival, self.ready_cycle)
        if inj.link_failed(rs.link_index, start0):
            raise rs.fail(start0, "scheduled hard failure")
        factor = inj.degrade_factor(rs.link_index, start0)
        cpf = int(math.ceil(self.timing.cycles_per_flit * factor))

        # Flow control: receiver tokens + sender retry-buffer space.
        start = rs.tokens.acquire(start0, nflits)
        start = rs.retry_buffer.acquire(start, nflits)
        rs.stall_cycles += start - start0
        at = self.attrib
        if at.enabled:
            if start0 > arrival:
                at.stall_span(self.site, StallCause.LINK_BUSY, arrival, start0)
            if start > start0:
                at.stall_span(
                    self.site, StallCause.LINK_TOKENS_EXHAUSTED, start0, start
                )
            at.sample_depth(f"{self.site}_tokens", start, rs.tokens.available)

        seq = rs.next_seq
        rs.next_seq += 1
        self.packets += 1

        t = start
        delivered_at: Optional[int] = None
        failures = 0
        while True:
            ser_end = t + nflits * cpf
            self.flits += nflits  # replays are real wire traffic
            self.busy_cycles += ser_end - t
            arrive = ser_end + lat
            if inj.flit_corrupted(rs.link_index, t, nflits, rs.site):
                # Receiver CRC check fails; NAK travels back; sender
                # replays from the retry buffer after exponential backoff.
                rs.crc_errors += 1
                rs.naks += 1
                rs.record("crc_error")
                rs.record("nak")
                if self.tracer.enabled:
                    self.tracer.emit(
                        "link", "nak", arrive, site=rs.site, seq=seq,
                        failures=failures + 1,
                    )
                failures += 1
                if failures > cfg.retry_limit:
                    self.ready_cycle = max(self.ready_cycle, ser_end)
                    if self.tracer.enabled:
                        self.tracer.emit(
                            "link", "link_failed", arrive, site=rs.site, seq=seq
                        )
                    raise rs.fail(arrive, "retry limit exceeded")
                rs.retries += 1
                rs.record("retry")
                if self.tracer.enabled:
                    self.tracer.emit(
                        "link", "retry", t, site=rs.site, seq=seq,
                        backoff=_backoff(cfg.backoff_base, failures),
                    )
                t = arrive + lat + _backoff(cfg.backoff_base, failures)
                continue
            if delivered_at is None:
                # First intact arrival: deliver exactly once, in order.
                delivered_at = arrive
                assert seq == rs.expected_seq, "retry protocol reordered packets"
                rs.expected_seq = seq + 1
                rs.delivered.append((seq, arrive))
            else:
                # Replay of an already-delivered packet (its ACK was
                # lost): the receiver discards the duplicate and re-acks.
                rs.duplicates += 1
                rs.record("duplicate_suppressed")
            if not inj.ack_corrupted(rs.link_index, arrive, rs.site):
                ack_at = arrive + lat
                break
            failures += 1
            if failures > cfg.retry_limit:
                self.ready_cycle = max(self.ready_cycle, ser_end)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "link", "link_failed", arrive, site=rs.site, seq=seq
                    )
                raise rs.fail(arrive, "retry limit exceeded (lost acks)")
            rs.retries += 1
            rs.record("retry")
            if self.tracer.enabled:
                self.tracer.emit(
                    "link", "retry", arrive, site=rs.site, seq=seq, lost_ack=True
                )
            t = arrive + lat + _backoff(cfg.backoff_base, failures)

        self.ready_cycle = max(self.ready_cycle, ser_end)
        if at.enabled:
            # Extra wire time past the fault-free first landing is replay.
            first_arrive = start + nflits * cpf + lat
            if delivered_at > first_arrive:
                at.stall_span(
                    self.site, StallCause.RETRY_REPLAY, first_arrive, delivered_at
                )
        # Receiver frees its input tokens once the packet is consumed;
        # the sender frees retry-buffer space when the ACK lands.
        rs.tokens.release(delivered_at, nflits)
        rs.retry_buffer.release(ack_at, nflits)
        return delivered_at


def _backoff(base: int, failures: int) -> int:
    """Exponential backoff before the ``failures``-th replay."""
    return base << min(failures - 1, _MAX_BACKOFF_SHIFT)


class Link:
    """Full-duplex link: independent request/response channels."""

    def __init__(
        self, index: int, timing: HMCTiming, obs: Observers = NO_OBSERVERS
    ) -> None:
        self.index = index
        # Underscore site names: stall sites become metrics keys under
        # ``attribution.stalls.<site>.<cause>``, and a site stays one
        # dotted path segment apart from a mesh node's ``node<k>.``.
        self.request = LinkChannel(
            timing, tracer=obs.tracer, attrib=obs.attrib, site=f"link{index}_req"
        )
        self.response = LinkChannel(
            timing, tracer=obs.tracer, attrib=obs.attrib, site=f"link{index}_rsp"
        )

    @property
    def wire_flits(self) -> int:
        return self.request.flits + self.response.flits

    # -- fault wiring -------------------------------------------------------

    def attach_faults(self, injector, fault_config) -> None:
        """Arm the retry protocol on both channels of this link."""
        self.request.retry = RetryState(injector, fault_config, self.index, "req")
        self.response.retry = RetryState(injector, fault_config, self.index, "rsp")

    @property
    def failed(self) -> bool:
        """True once either direction has been declared dead."""
        return any(
            ch.retry is not None and ch.retry.failed
            for ch in (self.request, self.response)
        )

    @property
    def failed_cycle(self) -> int:
        """Cycle the first direction died (-1 while healthy)."""
        cycles = [
            ch.retry.failed_cycle
            for ch in (self.request, self.response)
            if ch.retry is not None and ch.retry.failed
        ]
        return min(cycles) if cycles else -1

    @property
    def retry_events(self) -> Dict[str, int]:
        """Aggregate retry-protocol counters of both channels."""
        out = {
            "crc_errors": 0,
            "naks": 0,
            "retries": 0,
            "duplicates": 0,
            "stall_cycles": 0,
        }
        for ch in (self.request, self.response):
            if ch.retry is None:
                continue
            out["crc_errors"] += ch.retry.crc_errors
            out["naks"] += ch.retry.naks
            out["retries"] += ch.retry.retries
            out["duplicates"] += ch.retry.duplicates
            out["stall_cycles"] += ch.retry.stall_cycles
        return out
