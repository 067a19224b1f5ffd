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
from repro.obs.metrics import MetricsRegistry
from repro.obs.observers import NO_OBSERVERS, Observers

from .config import HMCConfig
from .link import Link, LinkFailedError
from .noc import build_noc
from .packet import AddressMap, HMCCommand
from .stats import HMCStats
from .vault import Vault


class HMCDevice:
    """One simulated HMC cube.

    Example::

        dev = HMCDevice()
        resp = dev.submit(packet, arrival_cycle=100)
        assert resp.complete_cycle > 100
    """

    def __init__(
        self, config: Optional[HMCConfig] = None, obs: Observers = NO_OBSERVERS
    ) -> None:
        self.config = config or HMCConfig()
        self.attrib = obs.attrib
        self.links: List[Link] = [
            Link(i, self.config.timing, obs=obs) for i in range(self.config.links)
        ]
        self.noc = build_noc(self.config, obs=obs)
        self.vaults: List[Vault] = [
            Vault(i, self.config, obs=obs) for i in range(self.config.vaults)
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
        amap = self.address_map
        size, rtype = request.size, request.rtype
        cmd, request_flits, response_flits, columns = amap.shapes.get(
            (size, rtype)
        ) or amap.shape_of(size, rtype)
        v, b, dram_row = amap.place(request.addr, size)
        is_write = cmd is HMCCommand.WR
        injector = self.injector
        noc = self.noc

        # Host -> device: serialize the request packet.  A link that dies
        # mid-transmission is recorded and the packet re-routed across the
        # surviving links from the failure-detection cycle onward.
        if injector is None:
            link = self._pick_link()
            at_device = link.request.transmit(arrival, request_flits)
        else:
            link, at_device = self._transmit_request(arrival, request_flits)
        at_vault = noc.to_vault(at_device, v, link.index, request_flits)

        # Vault + bank service, with transient-error re-reads.
        vault = self.vaults[v]
        bank = vault.banks[b]
        conflicts_before = bank.conflicts
        closed_page = self._closed_page
        if not closed_page:
            hits_before = bank.row_hits
            misses_before = bank.row_misses
            activations_before = bank.activations
        data_ready = vault.access(at_vault, b, dram_row, columns, is_write)
        poisoned = False
        if injector is not None:
            rereads = 0
            while injector.vault_error(v, data_ready):
                rereads += 1
                if rereads > self.config.faults.vault_error_limit:
                    # Uncorrectable: deliver poison rather than hang.
                    poisoned = True
                    self.fault_stats.record(f"vault{v}", "poisoned")
                    break
                self.fault_stats.record(f"vault{v}", "reread")
                data_ready = vault.access(
                    data_ready, b, dram_row, columns, is_write
                )

        # Device -> host: response packet back through the NoC + link.
        at_link = noc.to_link(data_ready, v, link.index, response_flits)
        dropped = False
        if injector is None:
            complete = link.response.transmit(at_link, response_flits)
        else:
            complete = self._transmit_response(link, response_flits, at_link)
            fate, fate_delay = injector.response_fate(complete)
            if fate == "poison":
                poisoned = True
            elif fate == "drop":
                dropped = True
            elif fate == "delay":
                complete += fate_delay

        st = self.stats
        st.record(arrival, complete, size, bank.conflicts - conflicts_before)
        st.wire_flits += request_flits + response_flits
        if closed_page:
            # Legacy accounting: one activation command per packet
            # (fault re-reads re-activate the bank but are not re-sent
            # by the host) — kept bit-identical to the pre-NoC model.
            # Closed-page banks never count row hits or misses.
            st.activations += 1
        else:
            st.activations += bank.activations - activations_before
            st.row_hits += bank.row_hits - hits_before
            st.row_misses += bank.row_misses - misses_before
        if cmd is HMCCommand.RD:
            st.reads += 1
        elif is_write:
            st.writes += 1
        else:
            st.atomics += 1
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
        return CoalescedResponse(request, complete, complete - arrival, poisoned)

    # -- internals ---------------------------------------------------------------

    def _transmit_request(self, arrival: int, flits: int):
        """Send the request packet, steering around dead links (faults on)."""
        link = self._pick_link()
        while True:
            try:
                return link, link.request.transmit(arrival, flits)
            except LinkFailedError as err:
                self._note_failure(link)
                arrival = max(arrival, err.cycle)
                link = self._pick_link()

    def _transmit_response(self, link: Link, flits: int, at_link: int) -> int:
        """Send the response packet, steering around dead links (faults on)."""
        # Prefer the request's own link; the crossbar can hand the
        # response to any surviving link's response channel.
        candidates = [link] + [other for other in self.links if other is not link]
        for cand in candidates:
            if cand.failed:
                continue
            try:
                return cand.response.transmit(at_link, flits)
            except LinkFailedError as err:
                self._note_failure(cand)
                at_link = max(at_link, err.cycle)
        raise RuntimeError("all HMC links failed; device unreachable")

    def _note_failure(self, link: Link) -> None:
        """Record a newly dead link and check the device is still reachable."""
        self.fault_stats.record(f"link{link.index}", "rerouted_after_failure")
        if not self.live_links:
            raise RuntimeError("all HMC links failed; device unreachable")

    def _pick_link(self) -> Link:
        """Round-robin across links, skipping ahead to a less-loaded one.

        The host interleaves packets over all lanes; pure min-ready
        selection would pile every packet onto link 0 whenever all links
        are instantaneously free, starving the other three of responses.
        Round-robin spreads request *and* response serialization load.
        In degraded mode (fault injection) dead links are skipped.
        """
        links = self.links
        if self.injector is not None and any(link.failed for link in links):
            links = self.live_links
            if not links:
                raise RuntimeError("all HMC links failed; device unreachable")
        n = len(links)
        start = self._rr_next % n
        self._rr_next = (start + 1) % n
        best = links[start]
        best_load = best.request.ready_cycle + best.response.ready_cycle
        # Negative indices wrap, so this visits start+1 .. n-1, 0 .. start-1:
        # the rest of the rotation, without building it.
        for i in range(start + 1 - n, start):
            cand = links[i]
            load = cand.request.ready_cycle + cand.response.ready_cycle
            if load + 64 < best_load:  # switch only on clear imbalance
                best, best_load = cand, load
        return best

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
