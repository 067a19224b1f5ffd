"""Top-level HMC device model (the HMCSim-3.0 stand-in).

An event-timed queueing model: each resource on the path of a request —
link request channel, crossbar, vault front-end, DRAM bank, crossbar,
link response channel — keeps a next-free cycle; a request submitted at
its arrival cycle threads through them in order and the device returns a
:class:`repro.core.packet.CoalescedResponse` stamped with the completion
cycle.  Requests must be submitted in non-decreasing arrival order (the
MAC emits them that way); this keeps the model simple and fast while
preserving queueing, serialization and bank-conflict behaviour.

With a :class:`repro.faults.FaultConfig` attached to the
:class:`HMCConfig`, the device additionally survives injected faults:

* link channels run the CRC/NAK/replay retry protocol
  (:mod:`repro.hmc.link`); a link that exhausts its retry budget is
  declared dead and traffic is steered across the remaining links
  (degraded mode, with the bandwidth loss reported);
* transient vault errors trigger ECC-style re-reads, and accesses that
  stay corrupted beyond the configured limit return *poisoned*
  responses instead of hanging;
* whole responses may be poisoned, dropped (``submit`` returns ``None``
  so the node-side timeout recovery re-issues the packet) or delayed.

Without a fault config every code path below is the original fault-free
model, cycle for cycle.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.packet import CoalescedRequest, CoalescedResponse
from repro.faults.injector import FaultInjector
from repro.faults.stats import FaultStats
from repro.obs.attribution import NULL_ATTRIBUTION
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.sim import register_wake_protocol

from .config import HMCConfig
from .link import Link, LinkFailedError
from .noc import build_noc
from .packet import AddressMap, HMCCommand, WirePacket, encode
from .stats import HMCStats
from .vault import Vault


@register_wake_protocol
class HMCDevice:
    """One simulated HMC cube.

    Example::

        dev = HMCDevice()
        resp = dev.submit(packet, arrival_cycle=100)
        assert resp.complete_cycle > 100
    """

    def __init__(
        self, config: Optional[HMCConfig] = None, tracer=NULL_TRACER,
        attrib=NULL_ATTRIBUTION,
    ) -> None:
        self.config = config or HMCConfig()
        self.tracer = tracer
        self.attrib = attrib
        self.links: List[Link] = [
            Link(i, self.config.timing, tracer=tracer, attrib=attrib)
            for i in range(self.config.links)
        ]
        self.noc = build_noc(self.config, attrib=attrib)
        self.vaults: List[Vault] = [
            Vault(i, self.config, tracer=tracer, attrib=attrib)
            for i in range(self.config.vaults)
        ]
        self.address_map = AddressMap.of(self.config)
        self._closed_page = self.config.page_policy == "closed"
        self.stats = HMCStats()
        self._last_arrival = 0
        self._rr_next = 0
        self.injector: Optional[FaultInjector] = None
        self.fault_stats: Optional[FaultStats] = None
        if self.config.faults is not None:
            self.fault_stats = FaultStats()
            self.injector = FaultInjector(self.config.faults, self.fault_stats)
            for link in self.links:
                link.attach_faults(self.injector, self.config.faults)
            # Expose the live per-site counters through the stats layer.
            self.stats.fault_events = self.fault_stats.counters

    # -- submission ------------------------------------------------------------

    def submit(
        self, request: CoalescedRequest, arrival: int
    ) -> Optional[CoalescedResponse]:
        """Serve one coalesced request arriving at cycle ``arrival``.

        Returns the completed response; all resource bookkeeping (link
        occupancy, bank busy windows, conflicts) is updated as a side
        effect.  With fault injection enabled the response may be marked
        poisoned, or the call may return ``None`` when the response was
        lost in flight (the node-side timeout recovery re-issues it).
        """
        if arrival < self._last_arrival:
            raise ValueError("requests must be submitted in arrival order")
        self._last_arrival = arrival

        wire = encode(request, self.config, self.address_map)

        # Host -> device: serialize the request packet.  A link that dies
        # mid-transmission is recorded and the packet re-routed across the
        # surviving links from the failure-detection cycle onward.
        link, at_device = self._transmit_request(wire, arrival)
        at_vault = self.noc.to_vault(
            at_device, wire.vault, link.index, wire.request_flits
        )

        # Vault + bank service, with transient-error re-reads.
        vault = self.vaults[wire.vault]
        bank = vault.banks[wire.bank]
        conflicts_before = bank.conflicts
        hits_before = bank.row_hits
        misses_before = bank.row_misses
        activations_before = bank.activations
        data_ready = vault.access(
            at_vault, wire.bank, wire.dram_row, wire.columns, request.is_write
        )
        poisoned = False
        if self.injector is not None:
            rereads = 0
            while self.injector.vault_error(wire.vault, data_ready):
                rereads += 1
                if rereads > self.config.faults.vault_error_limit:
                    # Uncorrectable: deliver poison rather than hang.
                    poisoned = True
                    self.fault_stats.record(f"vault{wire.vault}", "poisoned")
                    break
                self.fault_stats.record(f"vault{wire.vault}", "reread")
                data_ready = vault.access(
                    data_ready, wire.bank, wire.dram_row, wire.columns, request.is_write
                )
        conflicts_delta = bank.conflicts - conflicts_before

        # Device -> host: response packet back through the NoC + link.
        at_link = self.noc.to_link(
            data_ready, wire.vault, link.index, wire.response_flits
        )
        complete = self._transmit_response(link, wire, at_link)

        delay = 0
        dropped = False
        if self.injector is not None:
            fate, fate_delay = self.injector.response_fate(complete)
            if fate == "poison":
                poisoned = True
            elif fate == "drop":
                dropped = True
            elif fate == "delay":
                delay = fate_delay
        complete += delay

        self._record(
            request, wire, arrival, complete, conflicts_delta,
            bank.row_hits - hits_before,
            bank.row_misses - misses_before,
            bank.activations - activations_before,
        )
        at = self.attrib
        if at.enabled:
            # Inlined AttributionCollector.mark: five stamps per raw
            # request make this the hottest attribution site.
            dispatched = vault.last_dispatched
            for raw in request.requests:
                m = raw.marks
                if m is None:
                    m = raw.marks = {}
                m["xbar_arrive"] = at_device
                m["vault_arrive"] = at_vault
                m["bank_dispatch"] = dispatched
                m["data_ready"] = data_ready
                m["complete"] = complete
        if dropped:
            return None
        return CoalescedResponse(
            request=request,
            complete_cycle=complete,
            service_cycles=complete - arrival,
            poisoned=poisoned,
        )

    def submit_stream(
        self, requests: List[CoalescedRequest]
    ) -> List[CoalescedResponse]:
        """Serve a list of requests at their ``issue_cycle`` stamps.

        Dropped responses (fault injection) are omitted from the result.
        """
        ordered = sorted(requests, key=lambda r: r.issue_cycle)
        out = []
        for r in ordered:
            resp = self.submit(r, r.issue_cycle)
            if resp is not None:
                out.append(resp)
        return out

    # -- internals ---------------------------------------------------------------

    def _transmit_request(self, wire: WirePacket, arrival: int):
        """Send the request packet, steering around dead links."""
        link = self._pick_link(arrival)
        if self.injector is None:
            return link, link.request.transmit(arrival, wire.request_flits)
        while True:
            try:
                return link, link.request.transmit(arrival, wire.request_flits)
            except LinkFailedError as err:
                self._note_failure(link)
                arrival = max(arrival, err.cycle)
                link = self._pick_link(arrival)

    def _transmit_response(self, link: Link, wire: WirePacket, at_link: int) -> int:
        """Send the response packet, steering around dead links."""
        if self.injector is None:
            return link.response.transmit(at_link, wire.response_flits)
        # Prefer the request's own link; the crossbar can hand the
        # response to any surviving link's response channel.
        candidates = [link] + [other for other in self.links if other is not link]
        for cand in candidates:
            if cand.failed:
                continue
            try:
                return cand.response.transmit(at_link, wire.response_flits)
            except LinkFailedError as err:
                self._note_failure(cand)
                at_link = max(at_link, err.cycle)
        raise RuntimeError("all HMC links failed; device unreachable")

    def _note_failure(self, link: Link) -> None:
        """Record a newly dead link and check the device is still reachable."""
        self.fault_stats.record(f"link{link.index}", "rerouted_after_failure")
        if not self.live_links:
            raise RuntimeError("all HMC links failed; device unreachable")

    def _pick_link(self, arrival: int) -> Link:
        """Round-robin across links, skipping ahead to a less-loaded one.

        The host interleaves packets over all lanes; pure min-ready
        selection would pile every packet onto link 0 whenever all links
        are instantaneously free, starving the other three of responses.
        Round-robin spreads request *and* response serialization load.
        In degraded mode (fault injection) dead links are skipped.
        """
        n = len(self.links)
        if self.injector is not None and any(link.failed for link in self.links):
            live = self.live_links
            if not live:
                raise RuntimeError("all HMC links failed; device unreachable")
            start = self._rr_next % len(live)
            self._rr_next = (self._rr_next + 1) % len(live)
            best = live[start]
            best_load = best.request.ready_cycle + best.response.ready_cycle
            for i in range(1, len(live)):
                cand = live[(start + i) % len(live)]
                load = cand.request.ready_cycle + cand.response.ready_cycle
                if load + 64 < best_load:
                    best, best_load = cand, load
            return best
        start = self._rr_next
        self._rr_next = (start + 1) % n
        best = self.links[start]
        best_load = best.request.ready_cycle + best.response.ready_cycle
        for i in range(1, n):
            cand = self.links[(start + i) % n]
            load = cand.request.ready_cycle + cand.response.ready_cycle
            if load + 64 < best_load:  # switch only on clear imbalance
                best, best_load = cand, load
        return best

    def _record(
        self,
        request: CoalescedRequest,
        wire: WirePacket,
        arrival: int,
        complete: int,
        conflicts_delta: int,
        row_hits_delta: int = 0,
        row_misses_delta: int = 0,
        activations_delta: int = 1,
    ) -> None:
        st = self.stats
        st.record(arrival, complete, request.size, conflicts_delta)
        st.wire_flits += wire.total_flits
        if self._closed_page:
            # Legacy accounting: one activation command per packet
            # (fault re-reads re-activate the bank but are not re-sent
            # by the host) — kept bit-identical to the pre-NoC model.
            st.activations += 1
        else:
            st.activations += activations_delta
        st.row_hits += row_hits_delta
        st.row_misses += row_misses_delta
        if wire.command is HMCCommand.RD:
            st.reads += 1
        elif wire.command is HMCCommand.WR:
            st.writes += 1
        else:
            st.atomics += 1

    # -- quiescence skipping --------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Event-timed: responses materialize inside :meth:`submit`.

        The whole device advances by absolute next-free stamps (links,
        crossbar, vault front-ends, banks); completion cycles are
        returned to the node, which holds them in its in-flight heap —
        the heap head, not the device, is the wake source.
        """
        return None

    def skip_to(self, target: int) -> None:
        """All state is absolute timestamps: skipping costs nothing."""

    def busy_until(self) -> int:
        """Latest cycle any device resource is still occupied.

        A sweep over every vault's bank timing and both channels of every
        link — the memory-side horizon the busy-phase bench reports.
        """
        return max(
            self.noc.busy_until(),
            max((v.busy_until() for v in self.vaults), default=0),
            max((l.busy_until() for l in self.links), default=0),
        )

    def busy_vaults(self, now: int) -> int:
        """Vaults with at least one occupied bank at cycle ``now``."""
        return sum(1 for v in self.vaults if v.busy_banks(now))

    # -- aggregates ----------------------------------------------------------------

    @property
    def bank_conflicts(self) -> int:
        return sum(v.bank_conflicts for v in self.vaults)

    @property
    def activations(self) -> int:
        return sum(v.activations for v in self.vaults)

    @property
    def row_hits(self) -> int:
        return sum(v.row_hits for v in self.vaults)

    @property
    def row_misses(self) -> int:
        return sum(v.row_misses for v in self.vaults)

    @property
    def live_links(self) -> List[Link]:
        """Links still carrying traffic (all of them when faults are off)."""
        return [link for link in self.links if not link.failed]

    @property
    def failed_links(self) -> List[int]:
        """Indices of links declared dead by the retry protocol."""
        return [link.index for link in self.links if link.failed]

    @property
    def link_bandwidth_loss(self) -> float:
        """Fraction of aggregate link bandwidth lost to dead links."""
        if not self.links:
            return 0.0
        return len(self.failed_links) / len(self.links)

    def timeline_probes(self):
        """Probes for :class:`repro.obs.timeline.Timeline` (DESIGN 13).

        All rates: the device is event-timed (no instantaneous queue to
        read at a boundary), so the time-resolved signals are the deltas
        of its monotonic counters — wire traffic, bank conflicts, vault
        queue wait, and link retry pressure.
        """
        stats = self.stats
        noc_stats = self.noc.stats
        return [
            ("device.requests", "rate", lambda: stats.requests),
            ("device.wire_flits", "rate", lambda: stats.wire_flits),
            ("device.bank_conflicts", "rate", lambda: self.bank_conflicts),
            (
                "vaults.queue_wait_cycles",
                "rate",
                lambda: sum(v.stats.queue_wait_cycles for v in self.vaults),
            ),
            (
                "links.retries",
                "rate",
                lambda: sum(l.retry_events["retries"] for l in self.links),
            ),
            (
                "noc.contention_cycles",
                "rate",
                lambda: noc_stats.contention_cycles + noc_stats.buffer_stall_cycles,
            ),
            ("bank.row_hits", "rate", lambda: self.row_hits),
            ("bank.row_misses", "rate", lambda: self.row_misses),
        ]

    def metrics(self) -> dict:
        """Flat namespaced metrics over the device's stats sources."""
        reg = MetricsRegistry()
        reg.register("device", self.stats)
        # The NoC's StatsMixin dataclass rides the same snapshot/merge
        # contract as every other source (the legacy crossbar's raw
        # ints were silently dropped by PDES shard merges).
        reg.register("noc", self.noc.stats)

        def vault_totals() -> dict:
            return {
                "requests": sum(v.stats.requests for v in self.vaults),
                "queue_wait_cycles": sum(
                    v.stats.queue_wait_cycles for v in self.vaults
                ),
                "service_cycles": sum(v.stats.service_cycles for v in self.vaults),
                "bank_conflicts": self.bank_conflicts,
                "activations": self.activations,
            }

        def link_totals() -> dict:
            return {
                "wire_flits": sum(link.wire_flits for link in self.links),
                "packets": sum(
                    link.request.packets + link.response.packets
                    for link in self.links
                ),
                "busy_cycles": sum(
                    link.request.busy_cycles + link.response.busy_cycles
                    for link in self.links
                ),
                "failed": len(self.failed_links),
            }

        reg.register("vaults", vault_totals)
        reg.register("links", link_totals)
        if self.fault_stats is not None:
            reg.register("faults", self.fault_stats)
        return reg.collect()

    def unloaded_read_latency(self, size: int = 16) -> int:
        """Analytic latency of one isolated read (Table 1 calibration)."""
        cfg = self.config
        return cfg.timing.unloaded_read_latency(
            cfg.request_flits(size, False),
            cfg.response_flits(size, False),
            cfg.columns(size),
        )
