"""Credit-based fabric unit tests (determinism, flow control).

The same-cycle ordering tests pin the hop key: the fabric keys every
hop ``(deliver_cycle, src, seq, dst)`` with per-source sequence
numbers, making same-cycle arbitration a pure function of message
identity rather than of insertion order.
"""

import itertools

import pytest

from repro.node.interconnect import Interconnect


def drain(ic, cycle):
    """Deliver repeatedly until the fabric is empty; (cycle, dst, payload)s."""
    out = []
    while ic.in_flight:
        for dst, payload in ic.deliver(cycle):
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
        got = [p for _, p in ic.deliver(10)]
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
        for dst, payload in ic.deliver(1):
            delivered.setdefault(dst, []).append(payload)
        assert delivered == expect


class TestCreditFlowControl:
    def test_channel_capacity_paces_delivery(self):
        ic = Interconnect(latency_cycles=10, channel_capacity=2)
        for i in range(5):
            ic.send(0, dst=1, payload=i, src=0)
        # Credits gate admission: two per cycle, the rest stall.
        assert [p for _, p in ic.deliver(10)] == [0, 1]
        assert ic.credit_stalls == 3
        assert [p for _, p in ic.deliver(11)] == [2, 3]
        assert [p for _, p in ic.deliver(12)] == [4]
        assert ic.in_flight == 0

    def test_stalled_hops_precede_later_arrivals(self):
        ic = Interconnect(latency_cycles=10, channel_capacity=1)
        ic.send(0, dst=1, payload="old0", src=0)
        ic.send(0, dst=1, payload="old1", src=0)
        ic.send(1, dst=1, payload="new", src=0)  # arrives a cycle later
        assert [p for _, p in ic.deliver(10)] == ["old0"]
        assert [p for _, p in ic.deliver(11)] == ["old1"]
        assert [p for _, p in ic.deliver(12)] == ["new"]

    def test_peek_pop_hold_slot_until_popped(self):
        """Head-of-line blocking: an unpopped payload keeps its credit."""
        ic = Interconnect(latency_cycles=5, channel_capacity=1)
        ic.send(0, dst=2, payload="a", src=0)
        ic.send(0, dst=2, payload="b", src=0)
        ic.pump(5)
        assert ic.ready_dsts() == [2]
        assert ic.peek(2) == "a"
        ic.pump(6)  # consumer refused: "a" still holds the only credit
        assert ic.peek(2) == "a"
        assert ic.pop(2, 6) == "a"
        ic.pump(7)  # credit returned at 7: "b" admitted
        assert ic.pop(2, 7) == "b"
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
        assert ic.peek(3) == "x"

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
        assert ic.pop(1, 3) == "a"  # credit returns at cycle 4
        # Channel empty but "b" stalled: the fabric must wake at 4.
        assert ic.next_event_cycle(3) == 4

    def test_idle_fabric_reports_no_wake(self):
        ic = Interconnect(latency_cycles=3)
        assert ic.next_event_cycle(0) is None
