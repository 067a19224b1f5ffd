"""Configurable intra-cube NoC of the HMC logic layer (DESIGN.md §14).

Replaces the fixed-latency :class:`repro.hmc.crossbar.Crossbar` with a
pluggable link<->vault interconnect.  Hadidi et al. ("Performance
Implications of NoCs on 3D-Stacked Memories") show the logic-layer
switch is a first-order bottleneck that interacts with packet size; this
module makes that axis explorable while keeping the default (``ideal``)
topology bit-identical to the legacy crossbar, cycle for cycle.

Topologies (``HMCConfig.noc_topology``):

* ``ideal`` — the legacy semantics: a fixed ``crossbar_latency`` per
  direction, no contention, no buffering.  Used by default so every
  pre-refactor golden and engine-equivalence property is unchanged.
* ``xbar``  — per-destination output ports (one per vault on the
  request path, one per link on the response path).  Each port grants
  one packet at a time and stays busy for the packet's FLIT
  serialization time, so same-vault bursts contend; each port has a
  bounded input buffer of ``noc_buffers`` packets and a full buffer
  backpressures the packet at the link side (its admission — and hence
  everything downstream — is delayed until a slot frees).
* ``ring``  — ``xbar`` port semantics plus hop latency around a
  unidirectionally indexed vault ring; links inject at evenly spaced
  stops and a packet pays ``noc_hop_cycles`` per hop of minimal ring
  distance.
* ``mesh``  — ``xbar`` port semantics plus Manhattan-distance hop
  latency over a near-square vault grid.

Arbitration (``HMCConfig.noc_arbitration``) decides when a port grants
a waiting packet:

* ``fifo``         — grant as soon as the port frees, in arrival order.
* ``round_robin``  — the grant rotates across source links cycle by
  cycle; a packet from link *l* starts only on a cycle ``c`` with
  ``c % links == l`` (0..links-1 extra cycles of alignment).

The device submits requests in non-decreasing arrival order, so the
packets waiting at a port are already age-ordered: an oldest-first
arbiter would grant exactly as ``fifo`` does, and is not a separate
policy.

Every topology keeps *only absolute cycle stamps* (port ready cycles,
buffer release cycles) that are consumed by the next :meth:`to_vault` /
:meth:`to_link` call — exactly the contract of the bank and link
models.  Nothing observable happens on the NoC's own clock edge, so it
answers no wake and a skip leaves it untouched, and the SkipEngine
bit-identity guarantee holds for *all* topologies, not just ``ideal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.obs.attribution import StallCause
from repro.obs.observers import NO_OBSERVERS, Observers
from repro.obs.protocol import StatsMixin

from .timing import HMCTiming

__all__ = [
    "NOC_TOPOLOGIES",
    "NOC_ARBITRATIONS",
    "NoCStats",
    "IdealNoC",
    "XbarNoC",
    "RingNoC",
    "MeshNoC",
    "build_noc",
]

#: Selectable interconnect topologies (``HMCConfig.noc_topology``).
NOC_TOPOLOGIES = ("ideal", "xbar", "ring", "mesh")

#: Selectable port-arbitration policies (``HMCConfig.noc_arbitration``).
NOC_ARBITRATIONS = ("fifo", "round_robin")


@dataclass(slots=True)
class NoCStats(StatsMixin):
    """Traffic + contention counters of the intra-cube interconnect.

    Unlike the legacy crossbar's raw ``forwarded``/``returned`` ints,
    these snapshot through :class:`~repro.obs.protocol.StatsMixin`, so
    ``HMCDevice.metrics()`` (the ``noc.*`` namespace) carries them.
    """

    #: Request packets delivered link -> vault.
    forwarded: int = 0
    #: Response packets delivered vault -> link.
    returned: int = 0
    #: FLITs carried in each direction.
    request_flits: int = 0
    response_flits: int = 0
    #: Cycles packets waited for a busy output port (arbitration loss).
    contention_cycles: int = 0
    #: Cycles packets were held at the link because the target port's
    #: input buffer was full (backpressure).
    buffer_stall_cycles: int = 0
    #: Total hop-traversal cycles charged by ring/mesh routing.
    hop_cycles: int = 0


class IdealNoC:
    """Bit-identical stand-in for the legacy fixed-latency crossbar."""

    def __init__(self, timing: HMCTiming, obs: Observers = NO_OBSERVERS) -> None:
        # ``obs`` keeps build_noc uniform: the ideal NoC never stalls.
        self.timing = timing
        self.stats = NoCStats()

    def to_vault(self, cycle: int, vault: int = 0, link: int = 0, flits: int = 1) -> int:
        """Deliver a request from a link to its vault."""
        st = self.stats
        st.forwarded += 1
        st.request_flits += flits
        return cycle + self.timing.crossbar_latency

    def to_link(self, cycle: int, vault: int = 0, link: int = 0, flits: int = 1) -> int:
        """Deliver a response from a vault to its link."""
        st = self.stats
        st.returned += 1
        st.response_flits += flits
        return cycle + self.timing.crossbar_latency


class _Port:
    """One output port: grant serialization + a bounded input buffer.

    All state is absolute cycle stamps.  ``ready`` is when the port can
    grant its next packet; ``slots`` holds the release cycles of the
    packets currently occupying buffer entries (non-decreasing, because
    the port serializes grants).
    """

    __slots__ = ("ready", "slots", "capacity")

    def __init__(self, capacity: int) -> None:
        self.ready = 0
        self.capacity = capacity
        self.slots: List[int] = []

    def admit(self, arrival: int) -> int:
        """Earliest cycle a buffer entry is free for a packet at ``arrival``."""
        slots = self.slots
        while slots and slots[0] <= arrival:
            slots.pop(0)
        if len(slots) < self.capacity:
            return arrival
        admit = slots.pop(0)
        return admit

    def occupy(self, release: int) -> None:
        self.slots.append(release)
        self.ready = release


class XbarNoC:
    """Per-destination-port switch with bounded buffers + backpressure.

    Request packets contend for their vault's output port, responses
    for their link's.  A port grants one packet at a time and stays
    busy for the packet's FLIT serialization time (cut-through: the
    head FLIT reaches the destination after ``crossbar_latency`` plus
    any hop cycles, the port frees when the tail has passed).
    """

    #: Extra per-hop traversal cycles; the flat crossbar has no hops.
    topology = "xbar"

    def __init__(
        self,
        timing: HMCTiming,
        vaults: int,
        links: int,
        buffers: int = 8,
        arbitration: str = "fifo",
        obs: Observers = NO_OBSERVERS,
    ) -> None:
        if buffers < 1:
            raise ValueError("noc_buffers must be positive")
        if arbitration not in NOC_ARBITRATIONS:
            raise ValueError(f"unknown arbitration {arbitration!r}")
        self.timing = timing
        self.vaults = vaults
        self.links = links
        self.buffers = buffers
        self.arbitration = arbitration
        self.attrib = obs.attrib
        self.stats = NoCStats()
        self._vault_ports = [_Port(buffers) for _ in range(vaults)]
        self._link_ports = [_Port(buffers) for _ in range(links)]

    # -- routing --------------------------------------------------------------

    def hops(self, vault: int, link: int) -> int:
        """Hop count between injection stop of ``link`` and ``vault``."""
        return 0

    def _service(self, flits: int) -> int:
        """Port occupancy per packet: its FLIT serialization time."""
        return max(1, flits * self.timing.cycles_per_flit)

    def _traverse(
        self, port: _Port, arrival: int, source: int, sources: int,
        flits: int, hops: int,
    ) -> int:
        admit = port.admit(arrival)
        grant = max(admit, port.ready)
        if self.arbitration == "round_robin":
            # The rotating grant points at `source` once every `sources`
            # cycles; align the start to the source's turn.
            grant += (source - grant) % sources
        st = self.stats
        st.buffer_stall_cycles += admit - arrival
        st.contention_cycles += grant - admit
        at = self.attrib
        if at.enabled and grant > arrival:
            at.stall_span("noc", StallCause.NOC_CONTENTION, arrival, grant)
        port.occupy(grant + self._service(flits))
        hop_cycles = hops * self.timing.noc_hop_cycles
        st.hop_cycles += hop_cycles
        return grant + self.timing.crossbar_latency + hop_cycles

    def to_vault(self, cycle: int, vault: int = 0, link: int = 0, flits: int = 1) -> int:
        """Deliver a request from a link to its vault's port."""
        st = self.stats
        st.forwarded += 1
        st.request_flits += flits
        return self._traverse(
            self._vault_ports[vault], cycle, link, self.links, flits,
            self.hops(vault, link),
        )

    def to_link(self, cycle: int, vault: int = 0, link: int = 0, flits: int = 1) -> int:
        """Deliver a response from a vault to its link's port."""
        st = self.stats
        st.returned += 1
        st.response_flits += flits
        return self._traverse(
            self._link_ports[link], cycle, vault, self.vaults, flits,
            self.hops(vault, link),
        )


class RingNoC(XbarNoC):
    """Vault ring: links inject at evenly spaced stops."""

    topology = "ring"

    def hops(self, vault: int, link: int) -> int:
        stop = link * self.vaults // max(1, self.links)
        fwd = (vault - stop) % self.vaults
        return min(fwd, self.vaults - fwd)


class MeshNoC(XbarNoC):
    """Near-square vault grid: Manhattan-distance hop routing."""

    topology = "mesh"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        bits = (self.vaults - 1).bit_length()
        self._cols = 1 << ((bits + 1) // 2)

    def _coord(self, position: int):
        return position % self._cols, position // self._cols

    def hops(self, vault: int, link: int) -> int:
        stop = link * self.vaults // max(1, self.links)
        vx, vy = self._coord(vault)
        sx, sy = self._coord(stop)
        return abs(vx - sx) + abs(vy - sy)


def build_noc(config, obs: Observers = NO_OBSERVERS):
    """Instantiate the NoC selected by ``config.noc_topology``.

    ``config`` is an :class:`repro.hmc.config.HMCConfig` (duck-typed to
    avoid a circular import: config validates its knobs against this
    module's topology/arbitration tuples).
    """
    topology = config.noc_topology
    if topology == "ideal":
        return IdealNoC(config.timing, obs=obs)
    cls: Dict[str, type] = {"xbar": XbarNoC, "ring": RingNoC, "mesh": MeshNoC}
    if topology not in cls:
        raise ValueError(f"unknown NoC topology {topology!r}")
    return cls[topology](
        config.timing,
        vaults=config.vaults,
        links=config.links,
        buffers=config.noc_buffers,
        arbitration=config.noc_arbitration,
        obs=obs,
    )
