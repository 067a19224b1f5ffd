"""Credit-based fabric unit tests (determinism, flow control).

The same-cycle ordering tests pin the hop key: the fabric keys every
hop ``(deliver_cycle, src, seq, dst)`` with per-source sequence
numbers, making same-cycle arbitration a pure function of message
identity rather than of insertion order.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node.interconnect import Interconnect


def deliver(ic, cycle):
    """The mesh's consumer: pump, then take every ready channel whole;
    ``(dst, payload)`` in key order."""
    ic.pump(cycle)
    return [(dst, p) for dst, payloads in ic.take_ready(cycle) for p in payloads]


def drain(ic, cycle):
    """Deliver repeatedly until the fabric is empty; (cycle, dst, payload)s."""
    out = []
    while ic.in_flight:
        for dst, payload in deliver(ic, cycle):
            out.append((cycle, dst, payload))
        cycle += 1
    return out


class TestDeterministicOrdering:
    def test_same_cycle_ties_break_on_src_then_seq(self):
        ic = Interconnect(latency_cycles=10)
        # Three sources send to one destination in the same cycle, pushed
        # in scrambled source order.
        for src in (2, 0, 1):
            ic.send(0, dst=7, payload=f"s{src}m0", src=src)
        ic.send(0, dst=7, payload="s0m1", src=0)
        got = [p for _, p in deliver(ic, 10)]
        assert got == ["s0m0", "s0m1", "s1m0", "s2m0"]

    def test_order_invariant_under_send_interleaving(self):
        """Any cross-source push interleaving delivers identically.

        Per-source send order is fixed (a node's sends are a function of
        its own state), but which process pushes first is not — the old
        global sequence number leaked exactly that.
        """
        per_src = {
            src: [(src, seq) for seq in range(4)] for src in range(3)
        }
        reference = None
        for perm in itertools.permutations(per_src):
            ic = Interconnect(latency_cycles=5)
            streams = {s: iter(msgs) for s, msgs in per_src.items()}
            # Round-robin over sources in permuted order: every
            # interleaving keeps per-source order but scrambles pushes.
            for _ in range(4):
                for src in perm:
                    msg = next(streams[src])
                    ic.send(0, dst=msg[0] % 2, payload=msg, src=src)
            got = drain(ic, 5)
            if reference is None:
                reference = got
            assert got == reference

    def test_many_same_cycle_arrivals_regression(self):
        """Dozens of same-cycle hops arrive in full (src, seq, dst) order."""
        ic = Interconnect(latency_cycles=1, channel_capacity=256)
        expect = {}
        for src in range(8):
            for seq in range(6):
                dst = (src + seq) % 3
                ic.send(0, dst=dst, payload=(src, seq), src=src)
                expect.setdefault(dst, []).append((src, seq))
        for dst in expect:
            expect[dst].sort()  # (src, seq) order, never insertion order
        delivered = {}
        for dst, payload in deliver(ic, 1):
            delivered.setdefault(dst, []).append(payload)
        assert delivered == expect


class TestCreditFlowControl:
    def test_channel_capacity_paces_delivery(self):
        ic = Interconnect(latency_cycles=10, channel_capacity=2)
        for i in range(5):
            ic.send(0, dst=1, payload=i, src=0)
        # Credits gate admission: two per cycle, the rest stall.
        assert [p for _, p in deliver(ic, 10)] == [0, 1]
        assert ic.credit_stalls == 3
        assert [p for _, p in deliver(ic, 11)] == [2, 3]
        assert [p for _, p in deliver(ic, 12)] == [4]
        assert ic.in_flight == 0

    def test_stalled_hops_precede_later_arrivals(self):
        ic = Interconnect(latency_cycles=10, channel_capacity=1)
        ic.send(0, dst=1, payload="old0", src=0)
        ic.send(0, dst=1, payload="old1", src=0)
        ic.send(1, dst=1, payload="new", src=0)  # arrives a cycle later
        assert [p for _, p in deliver(ic, 10)] == ["old0"]
        assert [p for _, p in deliver(ic, 11)] == ["old1"]
        assert [p for _, p in deliver(ic, 12)] == ["new"]

    def test_refused_head_holds_its_slot(self):
        """Head-of-line blocking: a refused payload keeps its credit."""
        ic = Interconnect(latency_cycles=5, channel_capacity=1)
        ic.send(0, dst=2, payload="a", src=0)
        ic.send(0, dst=2, payload="b", src=0)
        ic.pump(5)
        [(dst, payloads)] = ic.take_ready(5)
        assert (dst, payloads) == (2, ["a"])
        ic.refuse(2, payloads)
        ic.pump(6)  # consumer refused: "a" still holds the only credit
        assert ic.take_ready(6) == [(2, ["a"])]
        ic.pump(7)  # credit returned at 7: "b" admitted
        assert ic.take_ready(7) == [(2, ["b"])]
        assert ic.in_flight == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Interconnect(-1)
        with pytest.raises(ValueError):
            Interconnect(10, channel_capacity=0)


class TestWakeProtocol:
    def test_hop_on_skip_target_is_delivered_not_swallowed(self):
        """Half-open skip boundary: an event exactly at the target runs."""
        ic = Interconnect(latency_cycles=7)
        ic.send(0, dst=3, payload="x", src=0)
        assert ic.next_event_cycle(0) == 7
        assert ic.next_event_cycle(7) == 7
        ic.pump(7)
        assert ic.take_ready(7) == [(3, ["x"])]

    def test_undrained_channel_pins_to_now(self):
        ic = Interconnect(latency_cycles=3)
        ic.send(0, dst=1, payload="x", src=0)
        ic.pump(3)
        assert ic.next_event_cycle(3) == 3
        assert ic.next_event_cycle(50) == 50

    def test_stalled_hop_wakes_at_credit_return(self):
        ic = Interconnect(latency_cycles=3, channel_capacity=1)
        ic.send(0, dst=1, payload="a", src=0)
        ic.send(0, dst=1, payload="b", src=0)
        ic.pump(3)
        assert ic.take_ready(3) == [(1, ["a"])]  # credit returns at cycle 4
        # Channel empty but "b" stalled: the fabric must wake at 4.
        assert ic.next_event_cycle(3) == 4

    def test_idle_fabric_reports_no_wake(self):
        ic = Interconnect(latency_cycles=3)
        assert ic.next_event_cycle(0) is None


def occupancy(ic, cycle):
    """dst -> payloads admitted and not yet popped, read without consuming:
    a whole-channel take handed straight back leaves the fabric as it was."""
    out = {}
    for dst, payloads in ic.take_ready(cycle):
        out[dst] = len(payloads)
        ic.refuse(dst, payloads)
    return out


class TestCreditRule:
    """room(dst) = capacity - occupancy - slots popped this cycle."""

    def test_second_pump_in_pop_cycle_admits_nothing(self):
        ic = Interconnect(latency_cycles=2, channel_capacity=1)
        ic.send(0, dst=4, payload="a", src=0)
        ic.send(0, dst=4, payload="b", src=0)
        ic.pump(2)
        assert ic.take_ready(2) == [(4, ["a"])]
        ic.pump(2)  # the freed slot's credit is still on its way back
        assert ic.queued == 0 and ic.stalled_hops == 1
        assert ic.next_event_cycle(2) == 3
        ic.pump(3)
        assert ic.take_ready(3) == [(4, ["b"])]

    def test_refused_tail_keeps_its_slots(self):
        ic = Interconnect(latency_cycles=1, channel_capacity=2)
        for i in range(3):
            ic.send(0, dst=0, payload=i, src=0)
        ic.pump(1)
        [(dst, payloads)] = ic.take_ready(1)
        assert (dst, payloads) == (0, [0, 1])
        ic.refuse(0, payloads[1:])  # 0 accepted, 1 refused
        ic.pump(2)  # one credit back: hop 2 joins behind the refused 1
        assert [p for _, p in deliver(ic, 2)] == [1, 2]
        assert ic.in_flight == 0

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=3),
        latency=st.integers(min_value=0, max_value=2),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("send"),
                    st.integers(min_value=0, max_value=2),
                    st.integers(min_value=0, max_value=1),
                    st.integers(min_value=1, max_value=4),
                ),
                st.tuples(st.just("pump")),
                st.tuples(st.just("pop"), st.integers(min_value=0, max_value=1)),
                st.tuples(st.just("take"), st.integers(min_value=0, max_value=3)),
                st.tuples(st.just("next")),
            ),
            max_size=60,
        ),
    )
    def test_random_sequences(self, capacity, latency, ops):
        """Random send/pump/pop/take sequences keep the fabric's contract.

        ``pop`` and ``take`` are each followed by a second pump in the
        same cycle, which must not reuse the slots they freed.
        """
        ic = Interconnect(latency_cycles=latency, channel_capacity=capacity)
        cycle = 0
        sent = {}
        delivered = {}
        popped_now = {}

        def consumed(dst, payload):
            delivered.setdefault((payload[0], dst), []).append(payload[1])
            popped_now[dst] = popped_now.get(dst, 0) + 1

        def check():
            assert ic.in_flight == len(ic.pending_payloads())
            for dst, held in occupancy(ic, cycle).items():
                # No channel over capacity, and a slot popped this cycle
                # stays taken for any pump in the same cycle.
                assert held + popped_now.get(dst, 0) <= capacity

        for op in ops:
            if op[0] == "send":
                _, src, dst, count = op
                for _ in range(count):
                    seq = sent.setdefault((src, dst), 0)
                    sent[(src, dst)] = seq + 1
                    ic.send(cycle, dst, (src, seq), src)
            elif op[0] == "pump":
                ic.pump(cycle)
            elif op[0] == "pop":
                # Accept the head of channel op[1] alone; every other
                # taken payload goes back.
                ready = ic.take_ready(cycle)
                for dst, payloads in ready:
                    if dst == op[1]:
                        consumed(dst, payloads[0])
                        payloads = payloads[1:]
                    if payloads:
                        ic.refuse(dst, payloads)
                if any(dst == op[1] for dst, _ in ready):
                    check()
                    ic.pump(cycle)
            elif op[0] == "take":
                # Accept up to op[1] payloads per channel, refuse the rest.
                for dst, payloads in ic.take_ready(cycle):
                    for payload in payloads[: op[1]]:
                        consumed(dst, payload)
                    if payloads[op[1]:]:
                        ic.refuse(dst, payloads[op[1]:])
                check()
                ic.pump(cycle)
            else:
                cycle += 1
                popped_now.clear()
            check()
        # Drain: everything sent arrives, once, in per-(src, dst) order.
        for _ in range(10 * (len(ops) + latency + 2)):
            if not ic.in_flight:
                break
            cycle += 1
            popped_now.clear()
            for dst, payload in deliver(ic, cycle):
                consumed(dst, payload)
            check()
        assert ic.in_flight == 0
        assert ic.next_event_cycle(cycle) is None
        assert delivered == {
            key: list(range(n)) for key, n in sent.items()
        }
