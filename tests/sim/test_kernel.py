"""Unit tests for the shared simulation kernel (repro.sim)."""

import pytest

from repro.sim import (
    ClockedModel,
    DEFAULT_ENGINE,
    LockstepEngine,
    SkipEngine,
    engine_names,
    get_engine,
)


class Pulse(ClockedModel):
    """Toy model: acts only at scheduled cycles, quiescent in between."""

    def __init__(self, events):
        self.events = sorted(events)
        self.fired = []
        self.ticks = 0
        self.skipped = 0

    def done(self):
        return not self.events

    def tick(self):
        self.ticks += 1
        if self.events and self.events[0] == self._cycle:
            self.fired.append(self._cycle)
            self.events.pop(0)
        self._cycle += 1

    def next_event_cycle(self, now):
        if not self.events:
            return None
        return max(self.events[0], now)

    def skip_to(self, target):
        self.skipped += target - self._cycle
        self._cycle = target


class Opaque(ClockedModel):
    """Same toy, but answering no wake: neither wake method is defined."""

    def __init__(self, events):
        self.events = sorted(events)
        self.fired = []
        self.ticks = 0

    done = Pulse.done
    tick = Pulse.tick


class Stuck(ClockedModel):
    """Never finishes and schedules no wake: exercises the guard."""

    def done(self):
        return False

    def tick(self):
        self._cycle += 1

    def next_event_cycle(self, now):
        return None


class TestEngines:
    def test_lockstep_ticks_every_cycle(self):
        sim = Pulse([3, 7, 20])
        get_engine("lockstep").run(sim, 100)
        assert sim.fired == [3, 7, 20]
        assert sim.cycle == 21
        assert sim.ticks == 21  # one tick per cycle, no skipping
        assert sim.skipped == 0

    def test_default_run_loop_skips(self):
        sim = Pulse([3, 7, 20])
        get_engine(None).run(sim, 100)
        assert sim.fired == [3, 7, 20]
        assert sim.cycle == 21
        assert sim.ticks == 4

    def test_each_engine_class_owns_its_run_entry(self):
        # Per-class wrappers (profiling spans) patch ``run`` through the
        # class ``__dict__``; both engines must expose their own entry.
        assert "run" in LockstepEngine.__dict__
        assert "run" in SkipEngine.__dict__

    def test_skip_ticks_only_at_events(self):
        sim = Pulse([3, 7, 20])
        SkipEngine().run(sim, max_cycles=100)
        assert sim.fired == [3, 7, 20]
        assert sim.cycle == 21  # same final cycle as lockstep
        assert sim.ticks == 4  # cycle 0 probes, then one tick per event
        assert sim.skipped == 21 - 4

    def test_skip_engine_rejects_a_model_without_a_wake(self):
        # There is no default wake: the first probe names the class,
        # instead of the skip engine silently ticking every cycle.
        sim = Opaque([3, 7])
        with pytest.raises(
            NotImplementedError, match="Opaque .*next_event_cycle"
        ):
            SkipEngine().run(sim, max_cycles=100)
        assert sim.ticks == 1
        # Lockstep never probes, so the same model runs there.
        sim = Opaque([3, 7])
        LockstepEngine().run(sim, max_cycles=100)
        assert sim.fired == [3, 7]
        assert sim.ticks == sim.cycle == 8

    @pytest.mark.parametrize("engine", [LockstepEngine(), SkipEngine()])
    def test_overrun_raises_at_identical_cycle(self, engine):
        sim = Stuck()
        with pytest.raises(RuntimeError, match="exceeded max_cycles"):
            engine.run(sim, max_cycles=10)
        assert sim.cycle == 11

    def test_skip_never_jumps_past_the_guard(self):
        # The only event is beyond the budget: the skip is capped at the
        # limit and the guard fires at the same counter as lockstep.
        lock, skip = Pulse([1000]), Pulse([1000])
        with pytest.raises(RuntimeError):
            LockstepEngine().run(lock, max_cycles=10)
        with pytest.raises(RuntimeError):
            SkipEngine().run(skip, max_cycles=10)
        assert skip.cycle == lock.cycle == 11

    def test_relative_budget_counts_from_current_cycle(self):
        sim = Pulse([3, 7])
        LockstepEngine().run(sim, max_cycles=100)
        sim.events = [sim.cycle + 5]
        # The budget counts from cycle 8: an absolute one would end at 6.
        LockstepEngine().run(sim, max_cycles=6)
        assert sim.fired[-1] == 8 + 5


class TestEngineResolution:
    def test_default_is_skip(self):
        engine = get_engine(None)
        assert engine.name == DEFAULT_ENGINE == "skip"
        assert engine.skipping

    def test_explicit_name_selects_engine(self):
        assert get_engine("lockstep").name == "lockstep"
        assert not get_engine("lockstep").skipping
        assert get_engine("skip").name == "skip"

    def test_instance_passthrough(self):
        eng = SkipEngine()
        assert get_engine(eng) is eng

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation engine"):
            get_engine("warp")

    def test_non_engine_rejected(self):
        with pytest.raises(TypeError):
            get_engine(42)

    def test_names_list_default_first(self):
        names = engine_names()
        assert names[0] == DEFAULT_ENGINE
        assert set(names) == {"lockstep", "skip"}


class TestBoilerplateDedup:
    """MAC / Node / NUMASystem share one run-loop implementation."""

    def test_models_extend_clocked_model(self):
        from repro.core.mac import MAC
        from repro.node.node import Node
        from repro.node.system import NUMASystem

        assert issubclass(MAC, ClockedModel)
        assert issubclass(Node, ClockedModel)
        assert issubclass(NUMASystem, ClockedModel)
        # Each keeps its historical guard message.
        assert "drain" in MAC._overrun_msg
        assert "node" in Node._overrun_msg
        assert "system" in NUMASystem._overrun_msg

    def test_mac_drain_guard_regression(self):
        """MAC.run's max-cycles guard is relative and still fires."""
        from repro.core.mac import MAC
        from repro.core.request import MemoryRequest, RequestType

        for engine in ("lockstep", "skip"):
            mac = MAC()
            for i in range(4):
                mac.submit(
                    MemoryRequest(addr=i << 8, rtype=RequestType.LOAD, tag=i)
                )
            with pytest.raises(
                RuntimeError, match="MAC failed to drain within max_cycles"
            ):
                mac.run(max_cycles=0, engine=engine)

    def test_mac_drain_guard_is_relative(self):
        """An already-advanced clock does not eat the drain budget."""
        from repro.core.mac import MAC
        from repro.core.request import MemoryRequest, RequestType

        mac = MAC()
        mac.submit(MemoryRequest(addr=0, rtype=RequestType.LOAD))
        mac.run()
        advanced = mac.cycle
        assert advanced > 0
        mac.submit(MemoryRequest(addr=256, rtype=RequestType.LOAD, tag=1))
        mac.run(max_cycles=advanced)  # absolute budget would already be spent
