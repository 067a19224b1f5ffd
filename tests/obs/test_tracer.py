"""EventTracer ring buffer, export formats, and Chrome-trace schema."""

import json
import warnings

import pytest

from repro.obs import NULL_TRACER, EventTracer, NullTracer

pytestmark = pytest.mark.obs


class TestNullTracer:
    def test_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.emit("arq", "alloc", 0, key=1) is None

    def test_singleton_has_no_state(self):
        assert NullTracer.__slots__ == ()


class TestRingBuffer:
    def test_emit_records_in_order(self):
        t = EventTracer()
        t.emit("arq", "alloc", 3, key=7)
        t.emit("vault", "conflict", 5)
        assert len(t) == 2
        assert t.events() == [
            (3, "arq", "alloc", {"key": 7}),
            (5, "vault", "conflict", None),
        ]
        assert t.events("arq") == [(3, "arq", "alloc", {"key": 7})]
        assert t.channels() == ["arq", "vault"]

    def test_bounded_with_drop_counter(self):
        t = EventTracer(capacity=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(10):
                t.emit("c", "e", i)
        assert len(t) == 4
        assert t.dropped == 6
        assert [e[0] for e in t.events()] == [6, 7, 8, 9]

    def test_warns_once_on_ring_wrap(self):
        t = EventTracer(capacity=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i in range(6):  # wraps on the third emit, then keeps going
                t.emit("c", "e", i)
        wraps = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(wraps) == 1
        assert "raise --trace-capacity" in str(wraps[0].message)
        assert t.dropped == 4

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_pause_resume(self):
        t = EventTracer()
        t.pause()
        t.emit("c", "e", 0)
        assert len(t) == 0
        t.resume()
        t.emit("c", "e", 1)
        assert len(t) == 1

    def test_clear(self):
        t = EventTracer(capacity=1)
        t.emit("c", "e", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t.emit("c", "e", 1)
        t.clear()
        assert len(t) == 0
        assert t.dropped == 0


def _traced():
    t = EventTracer()
    t.emit("arq", "alloc", 10, key=3, occupancy=1)
    t.emit("arq", "merge", 12, key=3)
    t.emit("link", "nak", 40, site=2, seq=9)
    return t


class TestChromeTrace:
    """Schema checks against the Trace Event Format the viewers expect."""

    def test_document_schema(self):
        doc = _traced().to_chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["dropped_events"] == 0
        json.loads(json.dumps(doc))  # JSON-serialisable end to end

    def test_event_schema(self):
        doc = _traced().to_chrome_trace()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(meta) + len(inst) == len(doc["traceEvents"])
        assert len(inst) == 3

        # One thread_name metadata record per channel, tids unique.
        assert {m["name"] for m in meta} == {"thread_name"}
        named = {m["tid"]: m["args"]["name"] for m in meta}
        assert sorted(named.values()) == ["arq", "link"]
        assert len(set(named)) == len(named)

        for e in inst:
            assert set(e) >= {"name", "cat", "ph", "ts", "pid", "tid", "s"}
            assert e["pid"] == 0
            assert e["s"] == "t"
            assert isinstance(e["ts"], int) and e["ts"] >= 0
            assert named[e["tid"]] == e["cat"]

    def test_instant_events_carry_args(self):
        doc = _traced().to_chrome_trace()
        alloc = next(
            e for e in doc["traceEvents"] if e["ph"] == "i" and e["name"] == "alloc"
        )
        assert alloc["args"] == {"key": 3, "occupancy": 1}
        assert alloc["ts"] == 10

    def test_write_chrome_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        n = _traced().write_chrome_trace(out)
        doc = json.loads(out.read_text())
        assert n == len(doc["traceEvents"]) == 5  # 3 events + 2 metadata


class TestJsonl:
    def test_write_jsonl(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        n = _traced().write_jsonl(out)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert n == len(rows) == 3
        assert rows[0] == {
            "cycle": 10,
            "channel": "arq",
            "name": "alloc",
            "key": 3,
            "occupancy": 1,
        }
        assert rows[2]["channel"] == "link"
