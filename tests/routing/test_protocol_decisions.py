"""Unit tests for DP / MB-m / TP routing decisions on crafted contexts."""

import pytest

from repro.core import two_phase
from repro.core.header import (
    DEFAULT_MISROUTE_LIMIT, MAX_MISROUTES, Header, encode,
)
from repro.core.two_phase import TwoPhaseProtocol
from repro.faults.model import FaultState
from repro.network.channel import VCClass
from repro.network.topology import MINUS, PLUS, KAryNCube
from repro.routing import mb
from repro.routing.base import Action
from repro.routing.duato import DuatoProtocol
from repro.routing.mb import MBmProtocol
from repro.sim.message import Message, TPMode

from tests.conftest import make_context


def make_msg(topo: KAryNCube, src: int, dst: int,
             inline: bool = False) -> Message:
    return Message(
        msg_id=1, src=src, dst=dst, length=4,
        offsets=topo.offsets(src, dst),
        sig=topo.direction_signature(src, dst), created_cycle=0,
        inline_header=inline,
    )


class TestDuatoDecisions:
    def test_takes_profitable_adaptive(self, torus8):
        ctx = make_context(torus8)
        msg = make_msg(torus8, 0, torus8.node_id((2, 1)), inline=True)
        d = DuatoProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.vc.vclass is VCClass.ADAPTIVE

    def test_falls_back_to_deterministic(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst, inline=True)
        # Exhaust the adaptive VC on the only profitable port.
        ch = torus8.channel_id(0, 0, PLUS)
        ctx.channels.free_adaptive(ch).reserve(9)
        d = DuatoProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.vc.vclass.is_deterministic

    def test_waits_when_escape_busy(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst, inline=True)
        ch = torus8.channel_id(0, 0, PLUS)
        for vc in ctx.channels.vcs(ch):
            vc.reserve(9)
        d = DuatoProtocol().decide(ctx, msg)
        assert d.action is Action.WAIT

    def test_aborts_on_faulty_escape(self, torus8):
        faults = FaultState(torus8)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        ctx = make_context(torus8, faults=faults)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst, inline=True)
        d = DuatoProtocol().decide(ctx, msg)
        assert d.action is Action.ABORT

    def test_adaptive_on_other_dimension_used_before_abort(self, torus8):
        faults = FaultState(torus8)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        ctx = make_context(torus8, faults=faults)
        dst = torus8.node_id((2, 2))  # profitable in both dimensions
        msg = make_msg(torus8, 0, dst, inline=True)
        d = DuatoProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.hop[0] == 1


class TestMBmDecisions:
    def test_profitable_first(self, torus8):
        ctx = make_context(torus8)
        msg = make_msg(torus8, 0, torus8.node_id((2, 1)))
        d = MBmProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert not d.is_misroute

    def test_skips_tried_channels(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst)
        msg.tried[0].add(torus8.channel_id(0, 0, PLUS))
        d = MBmProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.is_misroute  # only unprofitable ports remain

    def test_misroutes_when_profitable_busy(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst)
        for vc in ctx.channels.vcs(torus8.channel_id(0, 0, PLUS)):
            vc.reserve(9)
        d = MBmProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.is_misroute

    def test_backtracks_when_budget_spent(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst)
        # Pretend the header moved one hop and exhausted everything.
        ch = torus8.channel_id(0, 0, PLUS)
        vc = ctx.channels.free_adaptive(ch)
        vc.reserve(msg.msg_id)
        msg.extend_path(vc, torus8.neighbor(0, 0, PLUS), 0, False, 0, PLUS)
        msg.header_router = 1
        msg.header.apply_hop(0, PLUS, torus8.k)
        msg.header.misroutes = 6
        node = msg.current_node()
        for dim in range(torus8.n):
            for direction in (PLUS, MINUS):
                msg.tried[1].add(torus8.channel_id(node, dim, direction))
        d = MBmProtocol().decide(ctx, msg)
        assert d.action is Action.BACKTRACK

    def test_waits_with_backoff_at_source(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst)
        for dim in range(torus8.n):
            for direction in (PLUS, MINUS):
                msg.tried[0].add(torus8.channel_id(0, dim, direction))
        proto = MBmProtocol(max_retries=2)
        msg.header.misroutes = proto.misroute_limit
        d = proto.decide(ctx, msg)
        assert d.action is Action.WAIT
        assert msg.retries == 1
        assert msg.retry_wait == ctx.cycle + mb.RETRY_BACKOFF
        assert not msg.tried[0]  # history cleared for the retry

    def test_aborts_after_max_retries(self, torus8):
        ctx = make_context(torus8)
        msg = make_msg(torus8, 0, torus8.node_id((2, 0)))
        proto = MBmProtocol(max_retries=0)
        msg.header.misroutes = proto.misroute_limit
        for dim in range(torus8.n):
            for direction in (PLUS, MINUS):
                msg.tried[0].add(torus8.channel_id(0, dim, direction))
        d = proto.decide(ctx, msg)
        assert d.action is Action.ABORT

    def test_misroute_limit_respected(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst)
        msg.tried[0].add(torus8.channel_id(0, 0, PLUS))
        msg.header.misroutes = 6
        d = MBmProtocol(misroute_limit=6).decide(ctx, msg)
        # Cannot misroute (budget spent), cannot backtrack (source):
        # must retry/wait.
        assert d.action is Action.WAIT

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            MBmProtocol(misroute_limit=-1)


@pytest.mark.parametrize(
    "protocol", [TwoPhaseProtocol, MBmProtocol], ids=["tp", "mb"]
)
class TestMisrouteBudgetFitsHeader:
    """Figure 9's misroute field is 3 bits: a budget it cannot count to
    is refused when the protocol is built, not when ``encode`` meets
    the header that spent it."""

    def test_default_budget_is_shared(self, protocol):
        assert protocol().misroute_limit == DEFAULT_MISROUTE_LIMIT

    def test_budget_below_zero_rejected(self, protocol):
        assert protocol(misroute_limit=0).misroute_limit == 0
        with pytest.raises(ValueError, match="misroute limit"):
            protocol(misroute_limit=-1)

    def test_budget_above_field_rejected(self, protocol):
        top = protocol(misroute_limit=MAX_MISROUTES).misroute_limit
        encode(Header(offsets=[0, 0], misroutes=top), 8)
        with pytest.raises(ValueError, match="misroute limit"):
            protocol(misroute_limit=MAX_MISROUTES + 1)


class TestTwoPhaseDP:
    def test_safe_adaptive_first(self, torus8):
        ctx = make_context(torus8)
        msg = make_msg(torus8, 0, torus8.node_id((2, 1)))
        d = TwoPhaseProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.vc.vclass is VCClass.ADAPTIVE
        assert not msg.header.sr

    def test_blocks_on_busy_safe_deterministic(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst)
        for vc in ctx.channels.vcs(torus8.channel_id(0, 0, PLUS)):
            vc.reserve(9)
        d = TwoPhaseProtocol().decide(ctx, msg)
        assert d.action is Action.WAIT
        assert msg.tp_mode is TPMode.DP

    def test_switches_to_sr_on_unsafe_adaptive(self, torus8):
        faults = FaultState(torus8)
        mid = torus8.neighbor(0, 0, PLUS)
        beyond = torus8.neighbor(mid, 0, PLUS)
        faults.fail_node(torus8.neighbor(beyond, 0, PLUS))
        ctx = make_context(torus8, faults=faults)
        # Destination = beyond: the profitable channel 0->mid is safe,
        # mid->beyond is unsafe (beyond is adjacent to the fault).
        msg = make_msg(torus8, mid, beyond)
        proto = TwoPhaseProtocol(k_unsafe=3)
        d = proto.decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert msg.header.sr
        assert d.k == 3

    def test_aggressive_keeps_k_zero(self, torus8):
        faults = FaultState(torus8)
        mid = torus8.neighbor(0, 0, PLUS)
        beyond = torus8.neighbor(mid, 0, PLUS)
        faults.fail_node(torus8.neighbor(beyond, 0, PLUS))
        ctx = make_context(torus8, faults=faults)
        msg = make_msg(torus8, mid, beyond)
        d = TwoPhaseProtocol(k_unsafe=0).decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.k == 0

    def test_enters_detour_when_no_way_forward(self, torus8):
        faults = FaultState(torus8)
        # Fail both profitable next nodes from the source corner.
        dst = torus8.node_id((2, 2))
        faults.fail_node(torus8.node_id((1, 0)))
        faults.fail_node(torus8.node_id((0, 1)))
        ctx = make_context(torus8, faults=faults)
        msg = make_msg(torus8, 0, dst)
        d = TwoPhaseProtocol().decide(ctx, msg)
        assert msg.tp_mode is TPMode.DETOUR
        assert msg.header.detour
        # The detour decision itself misroutes (hold set).
        assert d.action is Action.RESERVE
        assert d.hold
        assert d.is_misroute


class TestTwoPhaseDetour:
    def _detour_msg(self, topo, ctx, src, dst):
        msg = make_msg(topo, src, dst)
        msg.tp_mode = TPMode.DETOUR
        msg.header.detour = True
        return msg

    def test_profitable_any_safety(self, torus8):
        ctx = make_context(torus8)
        msg = self._detour_msg(torus8, ctx, 0, torus8.node_id((2, 1)))
        d = TwoPhaseProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.hold
        assert not d.is_misroute

    def test_retry_then_abort_at_source(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        proto = TwoPhaseProtocol()
        msg = self._detour_msg(torus8, ctx, 0, dst)
        msg.header.misroutes = proto.misroute_limit
        for retry in range(1, two_phase.MAX_RETRIES + 1):
            for dim in range(torus8.n):
                for direction in (PLUS, MINUS):
                    msg.tried[0].add(torus8.channel_id(0, dim, direction))
            d = proto.decide(ctx, msg)
            assert d.action is Action.WAIT and msg.retries == retry
            assert msg.retry_wait == ctx.cycle + two_phase.RETRY_BACKOFF
            # History was cleared by the retry; re-fill it once the
            # backoff has elapsed.
            assert not msg.tried[0]
            ctx.cycle = msg.retry_wait
        for dim in range(torus8.n):
            for direction in (PLUS, MINUS):
                msg.tried[0].add(torus8.channel_id(0, dim, direction))
        d = proto.decide(ctx, msg)
        assert d.action is Action.ABORT

    def test_backtrack_preferred_over_u_turn(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((4, 0))
        msg = self._detour_msg(torus8, ctx, 0, dst)
        nxt = torus8.neighbor(0, 0, PLUS)
        ch = torus8.channel_id(0, 0, PLUS)
        vc = ctx.channels.free_adaptive(ch)
        vc.reserve(msg.msg_id)
        msg.extend_path(vc, nxt, 0, True, 0, PLUS)
        msg.header_router = 1
        msg.header.apply_hop(0, PLUS, torus8.k)
        # Everything from nxt is tried except the U-turn.
        for dim in range(torus8.n):
            for direction in (PLUS, MINUS):
                msg.tried[1].add(torus8.channel_id(nxt, dim, direction))
        d = TwoPhaseProtocol().decide(ctx, msg)
        assert d.action is Action.BACKTRACK

    def test_u_turn_when_backtrack_impossible(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((4, 0))
        msg = self._detour_msg(torus8, ctx, 0, dst)
        nxt = torus8.neighbor(0, 0, PLUS)
        ch = torus8.channel_id(0, 0, PLUS)
        vc = ctx.channels.free_adaptive(ch)
        vc.reserve(msg.msg_id)
        msg.extend_path(vc, nxt, 0, True, 0, PLUS)
        msg.header_router = 1
        msg.header.apply_hop(0, PLUS, torus8.k)
        msg.head_link = 0  # first data flit advanced to nxt: no retreat
        for dim in range(torus8.n):
            for direction in (PLUS, MINUS):
                port_ch = torus8.channel_id(nxt, dim, direction)
                if port_ch != torus8.channel_id(nxt, 0, MINUS):
                    msg.tried[1].add(port_ch)
        d = TwoPhaseProtocol().decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.is_misroute
        assert d.hop[:2] == (0, MINUS)
