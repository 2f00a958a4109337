"""Tests for the blocked-header escape hatches (Section 4.0 recovery).

A post-detour Two-Phase path is a walk and can revisit a physical
channel; the header must never deadlock waiting on a virtual channel
its own message holds, and any header blocked past the wait limit is
handed to the recovery mechanism (teardown + source retry).
"""

import random

from repro.core.two_phase import TwoPhaseProtocol
from repro.network.channel import VCClass
from repro.network.topology import KAryNCube, PLUS
from repro.routing.base import Action
from repro.sim.message import Message, TPMode

from tests.conftest import build_engine, drain_engine, make_context


class TestSelfOwnedEscape:
    def _msg_with_walk(self, topo, ctx):
        """A message whose walk already owns every VC of its det hop."""
        dst = topo.node_id((2, 0))
        msg = Message(
            msg_id=1, src=0, dst=dst, length=4,
            offsets=topo.offsets(0, dst),
            sig=topo.direction_signature(0, dst), created_cycle=0,
            inline_header=False,
        )
        ch = topo.channel_id(0, 0, PLUS)
        for vc in ctx.channels.vcs(ch):
            vc.reserve(msg.msg_id)
        return msg

    def test_detours_instead_of_waiting_on_self(self, torus8):
        ctx = make_context(torus8)
        msg = self._msg_with_walk(torus8, ctx)
        decision = TwoPhaseProtocol().decide(ctx, msg)
        # Must not WAIT: the deterministic VC belongs to this message.
        assert decision.action is not Action.WAIT
        assert msg.tp_mode is TPMode.DETOUR

    def test_waits_when_other_message_owns_escape(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 0))
        msg = Message(
            msg_id=1, src=0, dst=dst, length=4,
            offsets=torus8.offsets(0, dst),
            sig=torus8.direction_signature(0, dst), created_cycle=0,
            inline_header=False,
        )
        ch = torus8.channel_id(0, 0, PLUS)
        for vc in ctx.channels.vcs(ch):
            vc.reserve(99)  # someone else
        decision = TwoPhaseProtocol().decide(ctx, msg)
        assert decision.action is Action.WAIT
        assert msg.tp_mode is TPMode.DP


class TestWaitLimitEscape:
    def test_blocked_header_recovered_and_retried(self):
        """Hold every VC toward the destination with parked owners."""
        engine = build_engine(
            "tp", k=8, max_header_wait=40, watchdog_cycles=5000,
        )
        topo = engine.topology
        dst = topo.neighbor(0, 0, PLUS)
        ch = topo.channel_id(0, 0, PLUS)
        for vc in engine.channels.vcs(ch):
            vc.reserve(10_000)  # phantom owner that never releases
        engine.inject(0, dst, length=4)
        # The original terminates quickly (superseded by a retry clone);
        # run long enough for every retry clone to play out as well.
        for _ in range(300):
            engine.step()
            if not engine.active and not engine.queues[0]:
                break
        # The header hit the wait limit, recovery tore it down, the
        # retries also failed, and the message was finally dropped.
        final = [r for r in engine.records if not r.superseded]
        assert final and final[-1].status == "DROPPED"
        assert engine.source_retries >= 1

    def test_wait_limit_releases_after_unblock(self):
        """If the channel frees before the limit, delivery proceeds."""
        engine = build_engine(
            "tp", k=8, max_header_wait=400,
        )
        topo = engine.topology
        dst = topo.neighbor(0, 0, PLUS)
        ch = topo.channel_id(0, 0, PLUS)
        parked = list(engine.channels.vcs(ch))
        for vc in parked:
            vc.reserve(10_000)
        msg = engine.inject(0, dst, length=4)
        for _ in range(30):
            engine.step()
        for vc in parked:
            vc.release()
        drain_engine(engine)
        assert msg.status.name == "DELIVERED"


class TestBacktrackLock:
    def test_lock_clears_on_arrival(self):
        """After a full faulty-run the lock is always back at -1."""
        from repro.faults.injection import place_random_node_faults
        from repro.faults.model import FaultState

        rng = random.Random(3)
        topo = KAryNCube(6, 2)
        faults = FaultState(topo)
        place_random_node_faults(faults, 3, rng)
        engine = build_engine(
            "tp", k=6, faults=faults,
            protocol_params={"k_unsafe": 3}, message_length=6,
        )
        healthy = [
            n for n in range(topo.num_nodes)
            if not faults.is_node_faulty(n)
        ]
        msgs = []
        for _ in range(8):
            src = rng.choice(healthy)
            dst = rng.choice([n for n in healthy if n != src])
            msgs.append(engine.inject(src, dst, length=6))
        drain_engine(engine)
        for msg in msgs:
            assert msg.backtrack_lock == -1
            assert msg.is_terminal()
