"""Trace record and file-format tests (incl. roundtrip property)."""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import MemoryRequest, RequestType
from repro.trace.record import TraceRecord, to_requests
from repro.trace.tracefile import (
    dump,
    dump_binary,
    dump_text,
    load,
    load_binary,
    load_text,
)

record_strategy = st.builds(
    TraceRecord,
    op=st.sampled_from(list(RequestType)),
    addr=st.integers(0, (1 << 52) - 1),
    size=st.integers(1, 256),
    tid=st.integers(0, 0xFFFF),
    core=st.integers(0, 7),
    cycle=st.integers(0, 1 << 40),
)


class TestRecord:
    def test_to_request(self):
        rec = TraceRecord(RequestType.STORE, addr=0xABC, size=8, tid=3, core=2, cycle=99)
        r = rec.to_request(tag=7, node=1)
        assert r.addr == 0xABC and r.rtype is RequestType.STORE
        assert r.tid == 3 and r.tag == 7 and r.node == 1
        assert r.issue_cycle == 99

    def test_to_requests_assigns_per_thread_tags(self):
        recs = [
            TraceRecord(RequestType.LOAD, 0x100, tid=1),
            TraceRecord(RequestType.LOAD, 0x200, tid=2),
            TraceRecord(RequestType.LOAD, 0x300, tid=1),
        ]
        out = list(to_requests(recs))
        assert [r.tag for r in out] == [0, 0, 1]

    def test_tag_wraps_at_16_bits(self):
        recs = [TraceRecord(RequestType.LOAD, 0x100, tid=0) for _ in range(3)]
        gen = to_requests(recs)
        first = next(gen)
        assert first.tag == 0

    def test_record_is_an_immutable_tuple(self):
        rec = TraceRecord(RequestType.LOAD, 0x100, tid=3)
        assert rec == (RequestType.LOAD, 0x100, 8, 3, 0, 0)
        assert rec._fields == ("op", "addr", "size", "tid", "core", "cycle")
        with pytest.raises(AttributeError):
            rec.addr = 0

    def test_to_requests_checks_each_thread_tid(self):
        """The 16-bit TID check runs at a thread's first request."""
        good = TraceRecord(RequestType.LOAD, 0x100, tid=0xFFFF)
        bad = TraceRecord(RequestType.LOAD, 0x200, tid=0x10000)
        gen = to_requests([good, good, bad])
        assert [next(gen).tag, next(gen).tag] == [0, 1]
        with pytest.raises(ValueError, match="tid 65536 outside 16-bit range"):
            next(gen)


def keyword_reference(records, node):
    """``to_requests`` spelled with the keyword ``TraceRecord.to_request``."""
    next_tag = {}
    out = []
    for rec in records:
        tag = next_tag.get(rec.tid, 0)
        next_tag[rec.tid] = (tag + 1) & 0xFFFF
        out.append(rec.to_request(tag=tag, node=node))
    return out


def field_values(requests):
    return [
        (type(r), [(f.name, getattr(r, f.name)) for f in fields(MemoryRequest)])
        for r in requests
    ]


class TestToRequestsFastPath:
    """The positional conversion equals the keyword one, field for field."""

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(
            st.builds(
                TraceRecord,
                op=st.sampled_from(list(RequestType)),
                addr=st.integers(0, (1 << 52) - 1),
                size=st.integers(1, 256),
                tid=st.integers(0, 5) | st.integers(0, 0xFFFF),
                core=st.integers(0, 7),
                cycle=st.integers(0, 1 << 40),
            ),
            max_size=80,
        ),
        node=st.integers(0, 63),
    )
    def test_matches_keyword_conversion(self, records, node):
        got = list(to_requests(records, node=node))
        assert field_values(got) == field_values(keyword_reference(records, node))
        assert all(r.rtype is rec.op for r, rec in zip(got, records))

    def test_matches_across_the_tag_wrap(self):
        """One tid issues more than 65,536 requests: its tags wrap to 0."""
        rng = random.Random(17)
        ops = list(RequestType)
        records = [
            TraceRecord(
                rng.choice(ops),
                rng.randrange(1 << 40),
                rng.choice((4, 8, 16)),
                0 if rng.random() < 0.9 else rng.randrange(1, 4),
                rng.randrange(8),
                i,
            )
            for i in range(73_000)
        ]
        got = list(to_requests(records, node=3))
        assert field_values(got) == field_values(keyword_reference(records, 3))
        tid0 = [r.tag for r in got if r.tid == 0]
        assert len(tid0) > 0x10000
        assert tid0[0xFFFF] == 0xFFFF and tid0[0x10000] == 0
        assert {r.node for r in got} == {3}


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        recs = [
            TraceRecord(RequestType.LOAD, 0x1000, 8, 1, 0, 5),
            TraceRecord(RequestType.FENCE, 0, 8, 1, 0, 6),
            TraceRecord(RequestType.ATOMIC, 0x2000, 8, 2, 1, 7),
        ]
        p = tmp_path / "t.txt"
        assert dump_text(recs, p) == 3
        assert list(load_text(p)) == recs

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# header\n\nLD 0x10 8 0 0 0\n")
        assert len(list(load_text(p))) == 1

    def test_malformed_line_raises(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("LD 0x10 8\n")
        with pytest.raises(ValueError):
            list(load_text(p))

    def test_unknown_op_raises(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("XX 0x10 8 0 0 0\n")
        with pytest.raises(ValueError):
            list(load_text(p))

    @pytest.mark.parametrize("tid", ["70000", "65536", "-1"])
    def test_tid_outside_16_bits_raises_with_line_and_field(self, tmp_path, tid):
        p = tmp_path / "t.txt"
        p.write_text(f"LD 0x10 8 65535 0 0\n# note\nLD 0x1000 8 {tid} 0 0\n")
        with pytest.raises(ValueError, match=rf"t\.txt:3: tid {tid} outside 0\.\.65535"):
            list(load_text(p))


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        recs = [TraceRecord(RequestType.STORE, 0xDEADBEEF, 16, 42, 3, 1 << 33)]
        p = tmp_path / "t.trc"
        dump_binary(recs, p)
        assert list(load_binary(p)) == recs

    def test_bad_magic_raises(self, tmp_path):
        p = tmp_path / "bad.trc"
        p.write_bytes(b"NOPE")
        with pytest.raises(ValueError):
            list(load_binary(p))

    def test_truncated_raises(self, tmp_path):
        recs = [TraceRecord(RequestType.LOAD, 0x10)]
        p = tmp_path / "t.trc"
        dump_binary(recs, p)
        data = p.read_bytes()
        p.write_bytes(data[:-3])
        with pytest.raises(ValueError):
            list(load_binary(p))

    @settings(max_examples=20, deadline=None)
    @given(recs=st.lists(record_strategy, max_size=50))
    def test_roundtrip_property(self, recs, tmp_path_factory):
        p = tmp_path_factory.mktemp("trc") / "t.trc"
        dump_binary(recs, p)
        assert list(load_binary(p)) == recs


class TestDispatchingIO:
    def test_dump_load_sniffing(self, tmp_path):
        recs = [TraceRecord(RequestType.LOAD, 0x40)]
        tp, bp = tmp_path / "t.txt", tmp_path / "t.trc"
        dump(recs, tp)
        dump(recs, bp)
        assert list(load(tp)) == recs
        assert list(load(bp)) == recs
