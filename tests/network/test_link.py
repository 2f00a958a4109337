"""Unit tests for physical-channel bandwidth allocation primitives."""

import pytest

from repro.network.link import ControlPlane, RoundRobinArbiter
from repro.sim.message import ControlFlit, ControlKind


class TestControlQueue:
    """One channel's control FIFO inside a :class:`ControlPlane`."""

    def test_fifo_order(self):
        plane = ControlPlane()
        for i in range(5):
            plane.push(3, i)
        assert [plane.pop(3) for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_len_and_bool(self):
        plane = ControlPlane()
        assert not plane
        plane.push(3, "x")
        plane.push(3, "y")
        # Length counts busy channels, not queued flits.
        assert plane and len(plane) == 1

    def test_peek_does_not_remove(self):
        plane = ControlPlane()
        plane.push(3, "a")
        assert plane.peek(3) == "a"
        assert plane.peek(3) == "a"
        assert list(plane) == ["a"]

    def test_peek_empty_returns_none(self):
        plane = ControlPlane()
        assert plane.peek(3) is None
        plane.push(3, "a")
        plane.pop(3)
        assert plane.peek(3) is None

    def test_drain_empties_and_returns_all(self):
        plane = ControlPlane()
        for i in range(3):
            plane.push(3, i)
        assert plane.drain(3) == [0, 1, 2]
        assert not plane
        assert plane.drain(3) == []


class TestPopReady:
    @staticmethod
    def _flit(ready_cycle):
        return ControlFlit(ControlKind.ACK_POS, None, 0, ready_cycle)

    def test_one_ready_head_per_channel_in_channel_order(self):
        plane = ControlPlane()
        a, b, c, late = (self._flit(5), self._flit(5), self._flit(4),
                         self._flit(9))
        plane.push(7, a)
        plane.push(7, b)
        plane.push(2, c)
        plane.push(4, late)
        assert list(plane.pop_ready(5)) == [(2, c), (7, a)]
        assert plane.channels() == [4, 7]
        assert list(plane.pop_ready(5)) == [(7, b)]
        assert list(plane.pop_ready(8)) == []
        assert list(plane.pop_ready(9)) == [(4, late)]
        assert not plane

    def test_flits_pushed_during_the_walk_wait(self):
        plane = ControlPlane()
        plane.push(1, self._flit(0))
        plane.push(5, self._flit(0))
        seen = []
        for ch, flit in plane.pop_ready(0):
            seen.append(ch)
            plane.push(3, self._flit(0))  # a new busy channel
            plane.push(ch, flit)          # and the channel just popped
        assert seen == [1, 5]
        assert plane.channels() == [1, 3, 5]


class TestRoundRobinArbiter:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_single_requester(self):
        arb = RoundRobinArbiter(1)
        assert arb.grant_from([0]) == 0
        assert arb.grant_from([]) is None

    def test_rotates_among_requesters(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant_from([0, 1, 2]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_skips_idle_requesters(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant_from([1]) == 1
        assert arb.grant_from([0, 2]) == 2
        assert arb.grant_from([2, 0]) == 0

    def test_none_when_no_requests(self):
        arb = RoundRobinArbiter(4)
        arb.grant_from([3])
        assert arb.grant_from([]) is None
        assert arb.grant_from([3, 1]) == 1

    def test_grant_from_candidate_list(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant_from([2, 3]) == 2
        assert arb.grant_from([2, 3]) == 3
        assert arb.grant_from([2, 3]) == 2

    def test_grant_from_empty(self):
        assert RoundRobinArbiter(4).grant_from([]) is None

    def test_grant_from_fairness_across_all(self):
        arb = RoundRobinArbiter(3)
        seen = [arb.grant_from([0, 1, 2]) for _ in range(9)]
        assert seen.count(0) == seen.count(1) == seen.count(2) == 3
