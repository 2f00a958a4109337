"""Engine-level tests of kill-flit recovery and reliable delivery.

These exercise the Section 2.4 / Figure 16 mechanisms end to end: a
dynamic fault severs a message pipeline mid-flight; kill flits travel
to both the source and the destination releasing every reserved
resource; with tail acknowledgments enabled the source retransmits.
"""

import random

from repro.faults.injection import DynamicFaultSchedule, FaultEvent
from repro.network.topology import PLUS
from repro.sim.config import RecoveryConfig
from repro.sim.engine import Engine
from repro.sim.message import MessageStatus
from repro.sim.simulator import make_protocol
from repro.sim.config import SimulationConfig
from repro.network.topology import KAryNCube

from tests.conftest import build_engine, drain_engine, run_to_completion


def engine_with_fault_at(k, path_src, hop, cycle, recovery=None,
                         message_length=16):
    """An idle TP engine with one scheduled link fault on the +x path."""
    topo = KAryNCube(k, 2)
    fail_node = topo.node_id((hop, 0))
    fail_ch = topo.channel_id(fail_node, 0, PLUS)
    cfg = SimulationConfig(
        k=k, n=2, protocol="tp", offered_load=0.0,
        message_length=message_length, warmup_cycles=0, measure_cycles=0,
    )
    if recovery is not None:
        cfg = cfg.with_(recovery=recovery)
    schedule = DynamicFaultSchedule(
        events=[FaultEvent(cycle=cycle, kind="link", target=fail_ch)]
    )
    engine = Engine(
        cfg, make_protocol("tp"), topology=topo,
        rng=random.Random(1), dynamic_schedule=schedule,
    )
    return engine, topo


class TestKillRecovery:
    def test_interrupted_message_is_killed_and_resources_freed(self):
        engine, topo = engine_with_fault_at(8, 0, hop=2, cycle=8)
        msg = engine.inject(0, topo.node_id((4, 0)), length=16)
        run_to_completion(engine, msg)
        assert msg.status is MessageStatus.KILLED
        drain_engine(engine)
        assert engine.network_drained()
        assert engine.channels.all_free()

    def test_killed_flits_accounted(self):
        engine, topo = engine_with_fault_at(8, 0, hop=2, cycle=10)
        msg = engine.inject(0, topo.node_id((4, 0)), length=16)
        run_to_completion(engine, msg)
        drain_engine(engine)
        assert msg.killed_flits > 0
        assert msg.flit_conservation_ok()

    def test_fault_before_data_commits_retries_from_source(self):
        # PCS-style: MB-m setup interrupted with no data in the network
        # retries instead of losing the message.
        topo = KAryNCube(8, 2)
        fail_ch = topo.channel_id(topo.node_id((2, 0)), 0, PLUS)
        cfg = SimulationConfig(
            k=8, n=2, protocol="mb", offered_load=0.0,
            message_length=16, warmup_cycles=0, measure_cycles=0,
        )
        schedule = DynamicFaultSchedule(
            events=[FaultEvent(cycle=3, kind="link", target=fail_ch)]
        )
        engine = Engine(
            cfg, make_protocol("mb"), topology=topo,
            rng=random.Random(1), dynamic_schedule=schedule,
        )
        dst = topo.node_id((4, 0))
        engine.inject(0, dst, length=16)
        drain_engine(engine)
        # The original was superseded by a source retry that delivered.
        final = [r for r in engine.records if not r.superseded]
        assert len(final) == 1
        assert final[0].status == "DELIVERED"

    def test_unaffected_message_survives_fault(self):
        engine, topo = engine_with_fault_at(8, 0, hop=2, cycle=8)
        victim = engine.inject(0, topo.node_id((4, 0)), length=16)
        bystander = engine.inject(
            topo.node_id((0, 4)), topo.node_id((4, 4)), length=16
        )
        drain_engine(engine)
        assert victim.status is MessageStatus.KILLED
        assert bystander.status is MessageStatus.DELIVERED


class TestTailAck:
    def test_delivery_waits_for_tail_ack(self):
        engine = build_engine(
            "tp", k=8,
            recovery=RecoveryConfig(tail_ack=True, retransmit=True),
        )
        topo = engine.topology
        msg = engine.inject(0, topo.node_id((3, 0)), length=8)
        run_to_completion(engine, msg)
        assert msg.status is MessageStatus.DELIVERED
        assert msg.tail_acked
        drain_engine(engine)
        assert engine.channels.all_free()

    def test_tail_ack_adds_latency_over_plain(self):
        def latency(tail_ack: bool) -> int:
            engine = build_engine(
                "tp", k=8,
                recovery=RecoveryConfig(tail_ack=tail_ack),
            )
            topo = engine.topology
            msg = engine.inject(0, topo.node_id((3, 0)), length=8)
            run_to_completion(engine, msg)
            return msg.delivered_cycle - msg.created_cycle

        # delivered_cycle records data delivery; the held path shows up
        # in resource occupancy, not message latency.
        assert latency(True) == latency(False)

    def test_retransmission_after_dynamic_fault(self):
        engine, topo = engine_with_fault_at(
            8, 0, hop=2, cycle=8,
            recovery=RecoveryConfig(
                tail_ack=True, retransmit=True, max_retransmits=3
            ),
        )
        dst = topo.node_id((4, 0))
        engine.inject(0, dst, length=16)
        drain_engine(engine)
        final = [r for r in engine.records if not r.superseded]
        assert len(final) == 1
        assert final[0].status == "DELIVERED"
        assert engine.retransmissions == 1
        assert engine.channels.all_free()

    def test_retransmit_limit_drops_eventually(self):
        # Destination becomes unreachable: retransmits bounded.
        topo = KAryNCube(4, 2)
        cfg = SimulationConfig(
            k=4, n=2, protocol="tp", offered_load=0.0,
            message_length=8, warmup_cycles=0, measure_cycles=0,
            recovery=RecoveryConfig(
                tail_ack=True, retransmit=True, max_retransmits=2,
            ),
        )
        events = [
            FaultEvent(cycle=4, kind="node", target=topo.node_id((1, 0))),
            FaultEvent(cycle=4, kind="node", target=topo.node_id((3, 0))),
            FaultEvent(cycle=4, kind="node", target=topo.node_id((2, 1))),
            FaultEvent(cycle=4, kind="node", target=topo.node_id((2, 3))),
        ]
        engine = Engine(
            cfg, make_protocol("tp"), topology=topo, rng=random.Random(1),
            dynamic_schedule=DynamicFaultSchedule(events=events),
        )
        dst = topo.node_id((2, 0))
        engine.inject(0, dst, length=8)
        drain_engine(engine)
        final = [r for r in engine.records if not r.superseded]
        assert len(final) == 1
        assert final[0].status in ("DROPPED", "KILLED")
