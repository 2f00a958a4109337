"""Unit tests for the dimension-order validation protocol."""

import pytest

from repro.core.flow_control import FlowControlKind
from repro.faults.model import FaultState
from repro.network.topology import PLUS
from repro.routing.base import Action
from repro.routing.oblivious import DimensionOrderProtocol
from repro.sim.message import Message

from tests.conftest import make_context


def make_msg(topo, src, dst, inline):
    return Message(
        msg_id=1, src=src, dst=dst, length=4,
        offsets=topo.offsets(src, dst),
        sig=topo.direction_signature(src, dst), created_cycle=0,
        inline_header=inline,
    )


class TestConstruction:
    def test_wr_is_inline(self):
        proto = DimensionOrderProtocol(flow="wr")
        assert proto.inline_header
        assert proto.flow_control.kind is FlowControlKind.WORMHOLE

    def test_sr_decoupled_with_k(self):
        proto = DimensionOrderProtocol(flow="sr", k=2)
        assert not proto.inline_header
        assert proto.flow_control.k_safe == 2

    def test_pcs_decoupled(self):
        proto = DimensionOrderProtocol(flow="pcs")
        assert not proto.inline_header
        assert proto.flow_control.kind is FlowControlKind.PCS

    def test_rejects_unknown_flow(self):
        with pytest.raises(ValueError):
            DimensionOrderProtocol(flow="quantum")


class TestDecisions:
    def test_takes_dimension_order_hop(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 3))
        msg = make_msg(torus8, 0, dst, inline=True)
        d = DimensionOrderProtocol(flow="wr").decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.hop[:2] == (0, PLUS)
        assert d.vc.vclass.is_deterministic

    def test_waits_on_busy(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst, inline=True)
        for vc in ctx.channels.vcs(torus8.channel_id(0, 0, PLUS)):
            vc.reserve(9)
        d = DimensionOrderProtocol(flow="wr").decide(ctx, msg)
        assert d.action is Action.WAIT

    def test_aborts_on_fault(self, torus8):
        faults = FaultState(torus8)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        ctx = make_context(torus8, faults=faults)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst, inline=True)
        d = DimensionOrderProtocol(flow="wr").decide(ctx, msg)
        assert d.action is Action.ABORT

    def test_sr_programs_its_k(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = make_msg(torus8, 0, dst, inline=False)
        d = DimensionOrderProtocol(flow="sr", k=2).decide(ctx, msg)
        assert d.action is Action.RESERVE
        assert d.k == 2
