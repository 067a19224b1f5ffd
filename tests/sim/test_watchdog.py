"""Tests for the simulation watchdog + invariant sanitizer (repro.sim.watchdog)."""

import pytest

from repro.core.request import MemoryRequest, RequestType
from repro.node.node import Node
from repro.sim import (
    CHECK_ENV_VAR,
    NULL_WATCHDOG,
    WATCHDOG_ENV_VAR,
    InvariantViolation,
    LockstepEngine,
    SimulationHang,
    SkipEngine,
    Watchdog,
    default_watchdog,
)


def stream(core, n=120, rows=97, node=0):
    """Deterministic per-core request stream (mixed row locality)."""
    for i in range(n):
        row = (i * 13) % rows
        yield MemoryRequest(
            addr=(row << 8) | ((i % 8) << 4),
            rtype=RequestType.LOAD,
            tid=core,
            tag=i,
            core=core,
            node=node,
        )


class _Wedged:
    """Fake model that ticks forever without progress or scheduled wake."""

    def __init__(self, wake_ahead=0):
        self.cycle = 0
        self.wake_ahead = wake_ahead
        self.snapshots = 0

    def progress_token(self):
        return ("stuck",)

    def next_event_cycle(self, now):
        return now + self.wake_ahead if self.wake_ahead else now

    def hang_snapshot(self):
        self.snapshots += 1
        return {"cycle": self.cycle, "queue": 7}


def _spin(wd, sim, cycles):
    for _ in range(cycles):
        sim.cycle += 1
        wd.observe(sim)


def test_wedged_model_raises_hang_with_snapshot():
    wd = Watchdog(stall_cycles=100, check_interval=1)
    sim = _Wedged()
    with pytest.raises(SimulationHang) as exc:
        _spin(wd, sim, 200)
    assert exc.value.stalled_cycles >= 100
    assert exc.value.snapshot == {"cycle": exc.value.cycle, "queue": 7}
    assert "no progress" in str(exc.value)


def test_scheduled_future_wake_resets_stall_timer():
    # A model waiting on a future deadline (fault-retry backoff, blocked
    # core completion) is not hung, no matter how long the quiet span.
    wd = Watchdog(stall_cycles=100, check_interval=1)
    sim = _Wedged(wake_ahead=1000)
    _spin(wd, sim, 500)  # must not raise


def test_model_without_progress_token_never_hang_checked():
    class Opaque:
        cycle = 0

    wd = Watchdog(stall_cycles=1, check_interval=1)
    sim = Opaque()
    for _ in range(50):
        sim.cycle += 1
        wd.observe(sim)


def test_zero_stall_budget_disables_hang_detection():
    wd = Watchdog(stall_cycles=0, check_interval=1)
    _spin(wd, _Wedged(), 500)  # must not raise


def test_sanitizer_rejects_backwards_cycle():
    wd = Watchdog(check_interval=1, sanitize=True)
    sim = _Wedged(wake_ahead=10)
    sim.cycle = 5
    wd.observe(sim)
    sim.cycle = 3
    with pytest.raises(InvariantViolation, match="backwards"):
        wd.observe(sim)


def test_clean_node_run_passes_full_sanitizer():
    node = Node([stream(c) for c in range(2)])
    engine = LockstepEngine(watchdog=Watchdog(check_interval=1, sanitize=True))
    node.run(engine=engine)
    assert node.stats.responses_delivered == 240


def test_sanitizer_catches_planted_conservation_leak():
    node = Node([stream(c) for c in range(2)])
    node.run()
    node.check_invariants()  # drained node is clean
    # Plant a leak: an issuer-map entry whose raw is in no container.
    node._issuer[("ghost", 0)] = 0
    with pytest.raises(InvariantViolation, match="conservation"):
        node.check_invariants()


def test_sanitizer_catches_link_token_leak():
    from repro.faults import FaultConfig
    from repro.hmc.config import HMCConfig

    # Retry states (and their credit pools) only exist under faults.
    faults = FaultConfig.simple(flit_ber=1e-5, seed=3)
    node = Node([stream(0)], hmc_config=HMCConfig(faults=faults))
    node.run()
    pool = node.device.links[0].request.retry.tokens
    pool.available = pool.capacity + 1  # a returned token was duplicated
    with pytest.raises(InvariantViolation, match="leak"):
        node.check_invariants()


@pytest.mark.parametrize(
    "plant",
    [
        lambda e: e.bits | 1 << 16,  # a bit beyond the 16-FLIT row
        lambda e: 0,  # a live entry with no FLIT requested
        lambda e: (1 << (e.target_count + 1)) - 1,  # more FLITs than targets
    ],
    ids=["out-of-row", "empty", "over-count"],
)
def test_sanitizer_catches_bad_flit_map(plant):
    from repro.core.config import MACConfig
    from repro.core.mac import MAC

    mac = MAC(MACConfig(latency_hiding=False))
    for i in range(4):
        mac.submit(MemoryRequest(addr=0xA00 | (i << 4), rtype=RequestType.LOAD, tag=i))
    arq = mac.aggregator.arq
    while arq.empty:
        mac.tick()
    entry = arq.peek()
    mac.check_invariants()  # a live, well-formed entry passes
    entry.bits = plant(entry)
    with pytest.raises(InvariantViolation, match="FLIT map"):
        mac.check_invariants()


@pytest.mark.parametrize("engine_cls", [LockstepEngine, SkipEngine])
def test_watchdog_on_is_bit_identical_to_off(engine_cls):
    plain = Node([stream(c) for c in range(2)])
    plain.run(engine=engine_cls())
    watched = Node([stream(c) for c in range(2)])
    watched.run(
        engine=engine_cls(
            watchdog=Watchdog(stall_cycles=10_000, check_interval=1, sanitize=True)
        )
    )
    assert watched.stats.snapshot() == plain.stats.snapshot()
    assert watched.cycle == plain.cycle


def test_default_watchdog_env_gating(monkeypatch):
    monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
    monkeypatch.delenv(WATCHDOG_ENV_VAR, raising=False)
    assert default_watchdog() is NULL_WATCHDOG
    monkeypatch.setenv(CHECK_ENV_VAR, "1")
    wd = default_watchdog()
    assert wd.enabled and wd.sanitize
    monkeypatch.delenv(CHECK_ENV_VAR)
    monkeypatch.setenv(WATCHDOG_ENV_VAR, "5000")
    wd = default_watchdog()
    assert wd.enabled and not wd.sanitize and wd.stall_cycles == 5000


def test_env_armed_sanitizer_covers_default_engine(monkeypatch):
    # REPRO_SIM_CHECK=1 flows through get_engine() into a plain run().
    monkeypatch.setenv(CHECK_ENV_VAR, "1")
    node = Node([stream(0)])
    node.run()
    assert node.stats.responses_delivered == 120


def test_no_false_positive_under_fault_retry_backoff():
    """Retry/timeout stalls schedule future wakes; a tight watchdog that
    could never cover the 4000-cycle response timeout must stay quiet."""
    from repro.faults import FaultConfig
    from repro.hmc.config import HMCConfig

    faults = FaultConfig.simple(
        flit_ber=2e-4,
        drop_rate=0.02,
        delay_rate=0.02,
        delay_cycles=600,
        seed=7,
        timeout_cycles=4000,
    )
    node = Node(
        [stream(c, n=150) for c in range(4)], hmc_config=HMCConfig(faults=faults)
    )
    engine = LockstepEngine(
        watchdog=Watchdog(stall_cycles=6000, check_interval=64, sanitize=True)
    )
    node.run(engine=engine)
    assert node.stats.responses_delivered == 600


def test_mac_process_respects_engine_watchdog():
    from repro.core.mac import MAC
    from repro.trace.record import to_requests
    from repro.eval.runner import cached_trace

    reqs = list(to_requests(cached_trace("SG", 2, 100)))
    plain = MAC()
    base = plain.process(list(reqs))
    watched = MAC()
    engine = LockstepEngine(watchdog=Watchdog(check_interval=1, sanitize=True))
    out = watched.process(list(reqs), engine=engine)
    assert len(out) == len(base)
    assert [p.addr for p in out] == [p.addr for p in base]


@pytest.mark.parametrize("engine_cls", [LockstepEngine, SkipEngine])
def test_mac_wedged_in_the_feed_phase_raises_hang(engine_cls):
    """A MAC that neither accepts nor drains while ``process`` still
    feeds it is caught by the engine's watchdog."""
    from repro.core.mac import MAC

    mac = MAC()
    mac._arq_entries = 0  # the router never hands the ARQ a request
    reqs = [
        MemoryRequest(addr=i << 8, rtype=RequestType.LOAD, tag=i)
        for i in range(200)
    ]
    engine = engine_cls(watchdog=Watchdog(stall_cycles=500, check_interval=1))
    with pytest.raises(SimulationHang) as exc:
        mac.process(reqs, engine=engine)
    assert exc.value.stalled_cycles >= 500
    assert exc.value.snapshot["local_queue"] == 64
    assert exc.value.snapshot["arq_occupancy"] == 0
    assert mac._pending is not None  # still feeding
