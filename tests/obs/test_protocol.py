"""StatsMixin ``snapshot()`` contract tests over all stats types."""

import dataclasses

import pytest

from repro.cache.cache import CacheStats
from repro.cache.hierarchy import HierarchyStats
from repro.core.router import RouterStats
from repro.core.stats import MACStats
from repro.hmc.stats import HMCStats
from repro.hmc.vault import VaultStats
from repro.node.core import CoreStats
from repro.node.mt_core import MTCoreStats
from repro.node.node import NodeStats
from repro.node.system import SystemStats
from repro.obs import StatsMixin

pytestmark = pytest.mark.obs

#: Every StatsMixin adopter in the tree.
STATS_CLASSES = [
    CacheStats,
    HierarchyStats,
    RouterStats,
    MACStats,
    HMCStats,
    VaultStats,
    CoreStats,
    MTCoreStats,
    NodeStats,
    SystemStats,
]


def _blank(cls):
    """Instantiate ``cls`` supplying a value for any defaultless field."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            kwargs[f.name] = 4
    return cls(**kwargs)


@pytest.mark.parametrize("cls", STATS_CLASSES, ids=lambda c: c.__name__)
def test_satisfies_protocol(cls):
    obj = _blank(cls)
    snap = obj.snapshot()
    assert isinstance(snap, dict)
    for f in dataclasses.fields(cls):
        assert f.name in snap
    for name in cls.SNAPSHOT_DERIVED:
        assert name in snap


def test_snapshot_is_a_copy():
    s = MACStats()
    s.packet_sizes[64] = 2
    snap = s.snapshot()
    snap["packet_sizes"][64] = 99
    assert s.packet_sizes == {64: 2}

    h = HMCStats()
    h.record(arrival=10, completion=50, size=64, conflicts_delta=0)
    snap = h.snapshot()
    assert snap["latency_hist"]["count"] == 1
    assert snap["mean_latency"] == 40
    snap["size_histogram"][64] = 0
    assert h.size_histogram == {64: 1}


def test_mixin_is_slot_free():
    assert StatsMixin.__slots__ == ()
