"""Unit tests for detour-construction bookkeeping."""

from repro.core import detour
from repro.sim.message import Message


def make_msg() -> Message:
    return Message(
        msg_id=1, src=0, dst=5, length=4, offsets=(2, 1),
        sig=0b0101,  # plus in both dimensions
        created_cycle=0, inline_header=False,
    )


class TestEnterExit:
    def test_enter_sets_mode_and_bit(self):
        msg = make_msg()
        detour.enter_detour(msg)
        assert msg.header.detour
        assert detour.detour_complete(msg, at_destination=True)
        assert msg.detour_count == 1

    def test_complete_resets(self):
        msg = make_msg()
        detour.enter_detour(msg)
        msg.header.misroutes = 3
        detour.complete_detour(msg)
        assert not msg.header.detour
        assert not detour.detour_complete(msg, at_destination=True)
        assert msg.header.misroutes == 0
        assert msg.detour_stack == []

    def test_reentry_counts(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.complete_detour(msg)
        detour.enter_detour(msg)
        assert msg.detour_count == 2


class TestCorrectionAccounting:
    def test_misroute_pushes_stack(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        assert msg.detour_stack == [(0, +1)]
        assert msg.header.misroutes == 1
        assert msg.misroute_total == 1

    def test_profitable_opposite_pops(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        detour.record_forward_hop(msg, 0, -1, is_misroute=False)
        assert msg.detour_stack == []

    def test_unrelated_profitable_does_not_pop(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        detour.record_forward_hop(msg, 1, +1, is_misroute=False)
        assert msg.detour_stack == [(0, +1)]

    def test_pops_most_recent_matching(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        detour.record_forward_hop(msg, 1, +1, is_misroute=True)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        detour.record_forward_hop(msg, 0, -1, is_misroute=False)
        assert msg.detour_stack == [(0, +1), (1, +1)]

    def test_backtrack_over_misroute_refunds_budget(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        detour.record_backtrack(msg, 0, +1, was_misroute=True)
        assert msg.header.misroutes == 0
        assert msg.detour_stack == []

    def test_backtrack_over_profitable_no_refund(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        detour.record_backtrack(msg, 1, +1, was_misroute=False)
        assert msg.header.misroutes == 1
        assert msg.detour_stack == [(0, +1)]


class TestCompletion:
    def test_complete_when_stack_empty(self):
        msg = make_msg()
        detour.enter_detour(msg)
        assert detour.detour_complete(msg, at_destination=False)

    def test_not_complete_with_pending_misroute(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        assert not detour.detour_complete(msg, at_destination=False)

    def test_destination_always_completes(self):
        msg = make_msg()
        detour.enter_detour(msg)
        detour.record_forward_hop(msg, 0, +1, is_misroute=True)
        assert detour.detour_complete(msg, at_destination=True)

    def test_not_in_detour_mode(self):
        msg = make_msg()
        assert not detour.detour_complete(msg, at_destination=True)
