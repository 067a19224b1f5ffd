"""Timeline epoch sampling, export, and engine bit-identity.

The contract under test (DESIGN.md section 13): per-epoch rate deltas
and boundary levels with zero elision, capacity-bounded series, lazy
idempotent binding — and the pinned
invariant that enabling the timeline never changes the simulation,
whether the run is driven by the lockstep or the skip engine.
"""

import json

import pytest

from repro.obs import NULL_TIMELINE, NullTimeline, Observers, Timeline
from repro.obs.analyze import load_timeline
from repro.sim import ClockedModel, LockstepEngine, SkipEngine

pytestmark = pytest.mark.obs


class TestNullTimeline:
    def test_disabled_and_silent(self):
        assert NULL_TIMELINE.enabled is False
        assert NULL_TIMELINE.bind(object()) is None
        assert NULL_TIMELINE.pump(100) is None
        assert NULL_TIMELINE.finish(100) is None

    def test_singleton_has_no_state(self):
        assert NullTimeline.__slots__ == ()


class TestValidation:
    def test_epoch_positive(self):
        with pytest.raises(ValueError):
            Timeline(epoch=0)

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            Timeline(capacity=0)

    def test_probe_kind_checked(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.add_probe("x", "gauge", lambda: 0)


class TestSampling:
    def test_rate_records_per_epoch_deltas(self):
        state = {"count": 0}
        tl = Timeline(epoch=10)
        tl.add_probe("c", "rate", lambda: state["count"])
        state["count"] = 3
        tl.pump(10)  # boundary 10 closes epoch 0
        state["count"] = 7
        tl.pump(25)  # boundary 20 closes epoch 1
        assert tl.series("c") == {0: 3, 1: 4}

    def test_level_records_boundary_value(self):
        state = {"depth": 0}
        tl = Timeline(epoch=10)
        tl.add_probe("d", "level", lambda: state["depth"])
        state["depth"] = 5
        tl.pump(10)  # level at boundary 10 opens epoch 1
        state["depth"] = 2
        tl.pump(20)
        assert tl.series("d") == {1: 5, 2: 2}

    def test_zero_samples_elided(self):
        state = {"count": 0}
        tl = Timeline(epoch=10)
        tl.add_probe("c", "rate", lambda: state["count"])
        tl.add_probe("d", "level", lambda: 0)
        tl.pump(100)  # ten quiet boundaries
        state["count"] = 1
        tl.pump(110)
        assert tl.series("c") == {10: 1}
        assert tl.series("d") == {}

    def test_each_boundary_sampled_once(self):
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            return 0

        tl = Timeline(epoch=10)
        tl.add_probe("c", "rate", probe)
        base = calls["n"]  # add_probe baselines rates once
        tl.pump(30)
        tl.pump(30)  # re-pumping the same cycle is a no-op
        tl.pump(7)  # going backwards never re-samples
        assert calls["n"] - base == 3  # boundaries 10, 20, 30

    def test_finish_settles_partial_epoch(self):
        state = {"count": 0}
        tl = Timeline(epoch=10)
        tl.add_probe("c", "rate", lambda: state["count"])
        state["count"] = 4
        tl.pump(10)
        state["count"] = 9
        tl.finish(17)  # trailing partial epoch [10, 17)
        assert tl.series("c") == {0: 4, 1: 5}
        assert tl.export()["cycles"] == 17

    def test_finish_replaces_the_final_level_sample(self):
        # The boundary at 20 opens epoch 2 with level 5; the end-of-run
        # level in the same epoch replaces that sample instead of adding.
        tl = Timeline(epoch=10)
        tl.add_probe("lvl", "level", lambda: 5)
        tl.pump(25)
        tl.finish(25)
        assert tl.series("lvl") == {1: 5, 2: 5}

    def test_finish_zero_level_removes_the_final_sample(self):
        state = {"depth": 3}
        tl = Timeline(epoch=10)
        tl.add_probe("d", "level", lambda: state["depth"])
        tl.pump(25)
        state["depth"] = 0  # the run drains before it ends
        tl.finish(25)
        assert tl.series("d") == {1: 3}

    def test_finish_is_idempotent_and_boundary_exact(self):
        state = {"count": 0}
        tl = Timeline(epoch=10)
        tl.add_probe("c", "rate", lambda: state["count"])
        state["count"] = 4
        tl.finish(20)  # run ends exactly on a boundary: no partial epoch
        state["count"] = 99
        tl.finish(20)
        assert tl.series("c") == {0: 4}

    def test_capacity_evicts_oldest_and_counts(self):
        state = {"count": 0}
        tl = Timeline(epoch=10, capacity=3)
        tl.add_probe("c", "rate", lambda: state["count"])
        for b in range(1, 6):  # five busy epochs
            state["count"] += 1
            tl.pump(b * 10)
        assert tl.series("c") == {2: 1, 3: 1, 4: 1}
        assert tl.dropped() == 2
        assert tl.export()["series"]["c"]["dropped"] == 2


class _Probed:
    """Minimal model exposing the ``timeline_probes`` hook."""

    def __init__(self):
        self.count = 0

    def timeline_probes(self):
        return [
            ("m.count", "rate", lambda: self.count),
            ("m.level", "level", lambda: self.count % 3),
        ]


class TestBind:
    def test_bind_installs_probes(self):
        m = _Probed()
        tl = Timeline(epoch=10)
        tl.bind(m)
        m.count = 5
        tl.pump(10)
        assert tl.series("m.count") == {0: 5}

    def test_rebind_same_model_is_noop(self):
        m = _Probed()
        tl = Timeline(epoch=10)
        tl.bind(m)
        m.count = 5
        tl.bind(m)  # must NOT re-baseline the rate probe at 5
        tl.pump(10)
        assert tl.series("m.count") == {0: 5}

    def test_bind_other_model_replaces_probes(self):
        a, b = _Probed(), _Probed()
        tl = Timeline(epoch=10)
        tl.bind(a)
        tl.bind(b)
        b.count = 2
        a.count = 99
        tl.pump(10)
        assert tl.series("m.count") == {0: 2}

    def test_bind_without_hook_is_harmless(self):
        tl = Timeline(epoch=10)
        tl.bind(object())
        tl.pump(50)
        assert len(tl) == 0


class TestExportMerge:
    def test_export_schema(self):
        m = _Probed()
        tl = Timeline(epoch=10)
        tl.bind(m)
        m.count = 4
        tl.finish(25)
        doc = tl.export()
        assert doc["version"] == 1
        assert doc["epoch"] == 10
        assert doc["cycles"] == 25
        assert doc["series"]["m.count"]["kind"] == "rate"
        json.loads(json.dumps(doc))  # int keys are fine in-memory only

    def test_write_json_roundtrips_via_load_timeline(self, tmp_path):
        m = _Probed()
        tl = Timeline(epoch=10)
        tl.bind(m)
        m.count = 6
        tl.finish(15)
        out = tmp_path / "tl.json"
        n = tl.write_json(out, meta={"benchmark": "toy"})
        assert n == len(tl.export()["series"])
        doc = load_timeline(out)
        assert doc["meta"]["benchmark"] == "toy"
        assert doc["series"]["m.count"]["epochs"] == {0: 6, 1: 0} or doc[
            "series"
        ]["m.count"]["epochs"] == {0: 6}


class _PulseModel(ClockedModel):
    """Bursts at scheduled cycles, quiescent (and skippable) between."""

    def __init__(self, events):
        self.events = sorted(events)
        self.fired = []
        self.work = 0

    def done(self):
        return not self.events

    def tick(self):
        if self.events and self.events[0] == self._cycle:
            self.fired.append(self._cycle)
            self.events.pop(0)
            self.work += 1
        self._cycle += 1

    def next_event_cycle(self, now):
        if not self.events:
            return None
        return max(self.events[0], now)

    def skip_to(self, target):
        self._cycle = target

    def timeline_probes(self):
        return [
            ("pulse.work", "rate", lambda: self.work),
            ("pulse.pending", "level", lambda: len(self.events)),
        ]


EVENTS = [3, 95, 100, 101, 257, 300, 301, 555]


class TestEngineIntegration:
    def _run(self, engine_cls, timeline):
        sim = _PulseModel(EVENTS)
        sim.obs = Observers(timeline=timeline)
        engine_cls().run(sim, max_cycles=10_000)
        return sim

    def test_enabled_timeline_never_changes_the_run(self):
        for engine_cls in (LockstepEngine, SkipEngine):
            plain = self._run(engine_cls, NULL_TIMELINE)
            timed = self._run(engine_cls, Timeline(epoch=100))
            assert timed.fired == plain.fired
            assert timed.cycle == plain.cycle

    def test_lockstep_and_skip_produce_identical_timelines(self):
        tl_lock = Timeline(epoch=100)
        tl_skip = Timeline(epoch=100)
        self._run(LockstepEngine, tl_lock)
        skip_sim = self._run(SkipEngine, tl_skip)
        assert tl_skip.export() == tl_lock.export()
        # The skip engine actually skipped — the equality is not vacuous.
        assert skip_sim.cycle == max(EVENTS) + 1

    def test_boundary_on_skip_target_sampled_once(self):
        # 100 is both an epoch boundary and a burst cycle the skip
        # engine jumps straight to: the boundary must be sampled exactly
        # once, after the jump and before the tick at 100 fires (so
        # epoch 0 sees only the work of cycles 0..99).
        tl = Timeline(epoch=100)
        self._run(SkipEngine, tl)
        work = tl.series("pulse.work")
        assert work[0] == 2  # cycles 3 and 95; the burst at 100 excluded
        assert work[1] == 2  # cycles 100 and 101
        assert sum(work.values()) == len(EVENTS)
