"""Wake-protocol registry audit (the "silent lockstep" failure mode).

``ClockedModel.next_event_cycle`` defaults to ``now`` — safe (the skip
engine simply never skips) but silent: one component forgetting to
override it disables skipping system-wide with no symptom except lost
speed.  Every component participating in per-component scheduling
registers via ``@register_wake_protocol``; this suite pins that the
registry is populated, that no registered class still uses the tagged
default, and that the sanitizer warns when one does.
"""

import importlib
import pkgutil
import warnings

import pytest

import repro
from repro.sim import (
    ClockedModel,
    SkipEngine,
    WAKE_PROTOCOL_REGISTRY,
    register_wake_protocol,
    wake_protocol_offenders,
)
from repro.sim.watchdog import Watchdog


def test_every_registered_component_overrides_the_default():
    assert wake_protocol_offenders() == []


def test_registry_covers_the_component_tree():
    """The per-component wheel only works if *everything* participates."""
    # Components register when their module is imported; import the whole
    # tree so the audit does not depend on what ran before it.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    names = {cls.__name__ for cls in WAKE_PROTOCOL_REGISTRY}
    expected = {
        # node layer
        "Node", "NUMASystem", "InOrderCore", "MultithreadedCore",
        "Interconnect",
        # MAC layer
        "MAC", "RawRequestAggregator", "AggregatedRequestQueue",
        "RequestBuilder", "RequestRouter", "ResponseRouter",
        # device layer
        "HMCDevice", "Vault", "Bank", "Crossbar", "Link",
        # intra-cube NoC topologies (PR 10)
        "IdealNoC", "XbarNoC", "RingNoC", "MeshNoC",
    }
    missing = expected - names
    assert not missing, f"components missing from the wake registry: {missing}"


def test_default_is_tagged_not_overridden():
    fn = ClockedModel.next_event_cycle
    assert getattr(fn, "_default_wake", False) is True
    # And the tag does not leak onto overriding subclasses.
    from repro.node.node import Node

    assert getattr(Node.next_event_cycle, "_default_wake", False) is False


class TestFabricWakeConformance:
    """The credit fabric's wake contract at skip boundaries (PR 8).

    ``skip_to(target)`` uses half-open semantics: a hop landing exactly
    on the skip target must be *delivered* by the post-skip tick, never
    swallowed — the PDES windows lean on this to hand a shard exactly
    the hops with ``deliver_cycle`` inside its window.
    """

    def test_interconnect_is_not_an_offender(self):
        from repro.node.interconnect import Interconnect

        assert wake_protocol_offenders(Interconnect) == []

    def test_numa_skip_lands_on_hop_and_delivers_it(self):
        """System-level: a skip straight to a hop's deliver cycle works."""
        from repro.core.request import MemoryRequest, RequestType
        from repro.node.system import NUMASystem

        def remote_only(node):
            # One request whose home is the *other* node: forces a hop
            # out and a completion hop back, with idle spans between.
            yield MemoryRequest(
                addr=(1 - node) << 9,
                rtype=RequestType.LOAD,
                tid=0,
                tag=0,
                core=0,
                node=node,
            )

        lock = NUMASystem(
            [[remote_only(0)], [remote_only(1)]],
            interconnect_latency=300,
            interleave_bytes=1 << 9,
        )
        st_lock = lock.run(engine="lockstep")
        skip = NUMASystem(
            [[remote_only(0)], [remote_only(1)]],
            interconnect_latency=300,
            interleave_bytes=1 << 9,
        )
        st_skip = skip.run(engine="skip")
        assert st_skip.responses == st_lock.responses == 2
        assert skip.cycle == lock.cycle
        assert st_skip.snapshot() == st_lock.snapshot()


class _Forgetful(ClockedModel):
    """A model that registers but forgets to override the default."""

    def __init__(self):
        self._cycle = 0
        self._left = 3

    def done(self):
        return self._left == 0

    def tick(self):
        self._left -= 1
        self._cycle += 1


def test_offender_detection_on_a_single_class():
    try:
        register_wake_protocol(_Forgetful)
        assert wake_protocol_offenders(_Forgetful) == [_Forgetful]
        assert _Forgetful in wake_protocol_offenders()
    finally:
        WAKE_PROTOCOL_REGISTRY.remove(_Forgetful)
    assert _Forgetful not in WAKE_PROTOCOL_REGISTRY


def test_sanitizer_warns_on_default_wake():
    engine = SkipEngine(watchdog=Watchdog(sanitize=True))
    with pytest.warns(RuntimeWarning, match="does not override"):
        engine.run(_Forgetful(), max_cycles=100)


def test_no_warning_without_sanitize_or_with_override():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Sanitize off: the defaulted model runs silently (and correctly).
        SkipEngine(watchdog=Watchdog()).run(_Forgetful(), max_cycles=100)

        class _Diligent(_Forgetful):
            def next_event_cycle(self, now):
                return now if self._left else None

        SkipEngine(watchdog=Watchdog(sanitize=True)).run(
            _Diligent(), max_cycles=100
        )
