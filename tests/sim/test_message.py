"""Unit tests for the message / pipeline-state model."""

import pytest

from repro.network.channel import VCClass, VirtualChannel
from repro.sim.message import (
    ControlFlit,
    ControlKind,
    HeaderPhase,
    Message,
    MessageStatus,
)


def make_msg(inline=False, length=8) -> Message:
    return Message(
        msg_id=3, src=0, dst=9, length=length, offsets=(2, 1),
        sig=0b0101,  # plus in both dimensions
        created_cycle=5, inline_header=inline,
    )


class TestInitialState:
    def test_queued_with_header_at_source(self):
        msg = make_msg()
        assert msg.status is MessageStatus.QUEUED
        assert msg.header_phase is HeaderPhase.PENDING
        assert msg.header_router == 0
        assert msg.current_node() == 0

    def test_flit_accounting_decoupled_header(self):
        msg = make_msg(inline=False)
        assert msg.total_flits == 8
        assert msg.at_source == 8

    def test_flit_accounting_inline_header(self):
        msg = make_msg(inline=True)
        assert msg.total_flits == 9
        assert msg.at_source == 9

    def test_head_at_source(self):
        msg = make_msg()
        assert msg.head_link == -1

    def test_conservation_initially(self):
        assert make_msg().flit_conservation_ok()

    def test_offsets_copied(self):
        msg = make_msg()
        assert msg.header.offsets == [2, 1]


class TestPathMutation:
    def _vc(self, ch=0, idx=0):
        return VirtualChannel(ch, idx, VCClass.ADAPTIVE)

    def test_extend_path_grows_arrays(self):
        msg = make_msg()
        msg.extend_path(self._vc(), 1, k=3, hold=True, dim=0, direction=1,
                        is_misroute=True)
        assert len(msg.path) == 1
        assert msg.path_nodes == [0, 1]
        assert msg.k_at == [3]
        assert msg.held == [True]
        assert msg.link_misroute == [True]
        assert msg.buffered == [0]
        assert len(msg.acks_at) == 2
        assert len(msg.tried) == 2
        assert msg.arrival_dims[-1] == (0, 1)

    def test_pop_path_shrinks(self):
        msg = make_msg()
        vc = self._vc()
        msg.extend_path(vc, 1, 0, False, 0, 1)
        popped = msg.pop_path()
        assert popped is vc
        assert msg.path_nodes == [0]
        assert len(msg.acks_at) == 1

    def test_pop_path_with_data_raises(self):
        msg = make_msg()
        msg.extend_path(self._vc(), 1, 0, False, 0, 1)
        msg.buffered[0] = 2
        with pytest.raises(RuntimeError):
            msg.pop_path()

    def test_is_terminal(self):
        msg = make_msg()
        assert not msg.is_terminal()
        msg.status = MessageStatus.DELIVERED
        assert msg.is_terminal()
        msg.status = MessageStatus.DROPPED
        assert msg.is_terminal()
        msg.status = MessageStatus.KILLED
        assert msg.is_terminal()

    def test_conservation_tracks_buffers(self):
        msg = make_msg()
        msg.extend_path(self._vc(), 1, 0, False, 0, 1)
        msg.at_source -= 2
        msg.buffered[0] = 1
        msg.ejected = 1
        assert msg.flit_conservation_ok()
        msg.killed_flits = 1
        assert not msg.flit_conservation_ok()


class TestControlFlit:
    def test_fields(self):
        msg = make_msg()
        tok = ControlFlit(ControlKind.ACK_POS, msg, 2, 10)
        assert tok.kind is ControlKind.ACK_POS
        assert tok.message is msg
        assert tok.position == 2
        assert tok.ready_cycle == 10

    def test_repr_readable(self):
        msg = make_msg()
        assert "ack+" in repr(ControlFlit(ControlKind.ACK_POS, msg, 2, 10))

    def test_all_kinds_distinct(self):
        values = [k.value for k in ControlKind]
        assert len(values) == len(set(values)) == 9
