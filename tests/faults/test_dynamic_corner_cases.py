"""Corner cases of dynamic-fault handling in the engine."""

from repro.faults.injection import DynamicFaultSchedule, FaultEvent
from repro.network.topology import KAryNCube, PLUS
from repro.sim.config import RecoveryConfig
from repro.sim.message import MessageStatus
from repro.sim.simulator import idle_engine

from tests.conftest import drain_engine


def engine_with_events(events, protocol="tp", k=8, recovery=None, seed=1):
    topo = KAryNCube(k, 2)
    return idle_engine(
        protocol, k=k, message_length=12, seed=seed,
        recovery=recovery or RecoveryConfig(),
        dynamic_schedule=DynamicFaultSchedule(events=events),
    ), topo


class TestSourceAndDestinationFaults:
    def test_destination_node_dies_mid_delivery(self):
        topo = KAryNCube(8, 2)
        dst = topo.node_id((3, 0))
        engine, topo = engine_with_events(
            [FaultEvent(cycle=8, kind="node", target=dst)]
        )
        msg = engine.inject(0, dst, length=12)
        drain_engine(engine)
        assert msg.status in (MessageStatus.KILLED, MessageStatus.DROPPED)
        assert engine.channels.all_free()

    def test_source_node_dies_with_queued_messages(self):
        topo = KAryNCube(8, 2)
        src = topo.node_id((0, 0))
        engine, topo = engine_with_events(
            [FaultEvent(cycle=6, kind="node", target=src)]
        )
        active = engine.inject(src, topo.node_id((3, 0)), length=12)
        queued = engine.inject(src, topo.node_id((4, 0)), length=12)
        assert queued.status is MessageStatus.QUEUED
        drain_engine(engine)
        assert queued.status is MessageStatus.KILLED
        assert active.is_terminal()

    def test_dead_source_never_retransmits(self):
        topo = KAryNCube(8, 2)
        src = topo.node_id((0, 0))
        engine, topo = engine_with_events(
            [FaultEvent(cycle=6, kind="node", target=src)],
            recovery=RecoveryConfig(tail_ack=True, retransmit=True),
        )
        engine.inject(src, topo.node_id((3, 0)), length=12)
        drain_engine(engine)
        assert engine.retransmissions == 0


class TestMultipleFaultsOneMessage:
    def test_two_links_of_one_path_fail_same_cycle(self):
        topo = KAryNCube(8, 2)
        ch1 = topo.channel_id(topo.node_id((1, 0)), 0, PLUS)
        ch2 = topo.channel_id(topo.node_id((3, 0)), 0, PLUS)
        engine, topo = engine_with_events(
            [
                FaultEvent(cycle=9, kind="link", target=ch1),
                FaultEvent(cycle=9, kind="link", target=ch2),
            ]
        )
        msg = engine.inject(0, topo.node_id((5, 0)), length=12)
        drain_engine(engine)
        assert msg.is_terminal()
        assert engine.channels.all_free()
        assert msg.flit_conservation_ok()

    def test_second_fault_hits_during_teardown(self):
        topo = KAryNCube(8, 2)
        ch1 = topo.channel_id(topo.node_id((3, 0)), 0, PLUS)
        ch2 = topo.channel_id(topo.node_id((1, 0)), 0, PLUS)
        engine, topo = engine_with_events(
            [
                FaultEvent(cycle=9, kind="link", target=ch1),
                FaultEvent(cycle=11, kind="link", target=ch2),
            ]
        )
        msg = engine.inject(0, topo.node_id((5, 0)), length=12)
        drain_engine(engine)
        assert msg.is_terminal()
        assert engine.channels.all_free()


class TestFaultOnIdleNetwork:
    def test_fault_with_no_traffic_is_harmless(self):
        topo = KAryNCube(8, 2)
        ch = topo.channel_id(5, 0, PLUS)
        engine, topo = engine_with_events(
            [FaultEvent(cycle=3, kind="link", target=ch)]
        )
        for _ in range(10):
            engine.step()
        assert engine.faults.channel_faulty[ch]
        assert engine.network_drained()

    def test_later_traffic_routes_around_dynamic_fault(self):
        topo = KAryNCube(8, 2)
        ch = topo.channel_id(topo.node_id((1, 0)), 0, PLUS)
        engine, topo = engine_with_events(
            [FaultEvent(cycle=3, kind="link", target=ch)]
        )
        for _ in range(5):
            engine.step()
        msg = engine.inject(0, topo.node_id((3, 0)), length=12)
        drain_engine(engine)
        assert msg.status is MessageStatus.DELIVERED
        assert msg.hops_taken >= 3


class TestHeaderInFlightFaults:
    def test_header_on_failed_channel_is_recovered(self):
        """MB-m header stranded on a failing channel during setup."""
        topo = KAryNCube(8, 2)
        ch = topo.channel_id(topo.node_id((2, 0)), 0, PLUS)
        engine, topo = engine_with_events(
            [FaultEvent(cycle=3, kind="link", target=ch)],
            protocol="mb",
        )
        engine.inject(0, topo.node_id((4, 0)), length=12)
        drain_engine(engine)
        final = [r for r in engine.records if not r.superseded]
        assert final and final[-1].status == "DELIVERED"
        assert engine.channels.all_free()
