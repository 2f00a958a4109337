"""White-box tests of engine internals and uncommon branches."""

import random

import pytest

from repro.network.topology import KAryNCube, PLUS
from repro.sim.config import SimulationConfig
from repro.sim.engine import Engine
from repro.sim.message import ControlFlit, ControlKind, MessageStatus
from repro.sim.simulator import make_protocol

from tests.conftest import build_engine, delivered_count, drain_engine


class TestControlQueueGating:
    def test_token_waits_for_ready_cycle(self):
        engine = build_engine("tp", k=6)
        msg = engine.inject(0, 3, length=4)
        engine.step()  # header crosses link 1
        ch = msg.path[0].channel_id
        token = ControlFlit(
            ControlKind.RESUME, msg, 0, ready_cycle=engine.cycle + 5
        )
        reverse = engine.topology.reverse_channel_id(ch)
        engine.control_out.push(reverse, token)
        engine.step()
        # The future-dated token must not have crossed this cycle.
        assert engine.control_out.peek(reverse) is token
        drain_engine(engine)

    def test_one_control_flit_per_channel_per_cycle(self):
        engine = build_engine("tp", k=6)
        # Two messages whose headers use the same first channel's
        # control path cannot both cross in one cycle.
        a = engine.inject(0, 2, length=4)
        b = engine.inject(0, 2, length=4)  # queued behind a
        engine.step()
        assert a.header_router == 1
        assert b.status is MessageStatus.QUEUED


class TestPathIndexOf:
    def test_finds_live_link(self):
        engine = build_engine("tp", k=6)
        msg = engine.inject(0, 3, length=4)
        for _ in range(3):
            engine.step()
        vc = msg.path[0]
        assert engine._path_index_of(msg, vc) == 0

    def test_ignores_released_links(self):
        engine = build_engine("tp", k=6)
        msg = engine.inject(0, 3, length=4)
        for _ in range(3):
            engine.step()
        vc = msg.path[0]
        msg.released[0] = True
        assert engine._path_index_of(msg, vc) is None


class TestInjectionQueueBehaviour:
    def test_inject_beyond_queue_head_stays_queued(self):
        engine = build_engine("tp", k=6)
        msgs = [engine.inject(0, 3, length=4) for _ in range(4)]
        assert msgs[0].status is MessageStatus.ACTIVE
        assert all(m.status is MessageStatus.QUEUED for m in msgs[1:])
        drain_engine(engine)
        assert all(m.status is MessageStatus.DELIVERED for m in msgs)

    def test_fifo_service_order(self):
        engine = build_engine("tp", k=6)
        msgs = [engine.inject(0, 3, length=4) for _ in range(3)]
        drain_engine(engine)
        deliveries = [m.delivered_cycle for m in msgs]
        assert deliveries == sorted(deliveries)


class TestMeasuredCounters:
    def test_data_flits_moved_counted(self):
        engine = build_engine("tp", k=6)
        engine.inject(0, 2, length=4)
        drain_engine(engine)
        # 4 flits x 2 links = 8 channel crossings.
        assert engine.data_flits_moved == 8

    def test_vc_grants_match_crossings(self):
        engine = build_engine("tp", k=6)
        msg = engine.inject(0, 2, length=4)
        drain_engine(engine)
        total_grants = sum(
            vc.grants
            for ch in range(engine.topology.num_channels)
            for vc in engine.channels.vcs(ch)
        )
        assert total_grants == engine.data_flits_moved


class TestDeadlockFreedomStress:
    """Long saturated runs must never trip the progress watchdog."""

    @pytest.mark.parametrize("protocol", ["dp", "tp"])
    def test_saturated_fault_free(self, protocol):
        cfg = SimulationConfig(
            k=6, n=2, protocol=protocol, offered_load=0.9,
            message_length=16, warmup_cycles=0, measure_cycles=4000,
            seed=31, watchdog_cycles=1500,
        )
        from repro.sim.simulator import NetworkSimulator

        sim = NetworkSimulator(cfg)
        sim.engine.run(4000)  # raises DeadlockError on failure
        assert delivered_count(sim.engine) > 100

    def test_saturated_with_faults_tp(self):
        from repro.sim.config import FaultConfig
        from repro.sim.simulator import NetworkSimulator

        cfg = SimulationConfig(
            k=6, n=2, protocol="tp", offered_load=0.8,
            message_length=16, warmup_cycles=0, measure_cycles=4000,
            seed=31, watchdog_cycles=1500,
            faults=FaultConfig(static_node_faults=4),
        )
        sim = NetworkSimulator(cfg)
        sim.engine.run(4000)
        assert delivered_count(sim.engine) > 100

    def test_conservative_tp_saturated_with_faults(self):
        from repro.sim.config import FaultConfig
        from repro.sim.simulator import NetworkSimulator

        cfg = SimulationConfig(
            k=6, n=2, protocol="tp",
            protocol_params={"k_unsafe": 3},
            offered_load=0.8, message_length=16,
            warmup_cycles=0, measure_cycles=4000, seed=31,
            watchdog_cycles=1500,
            faults=FaultConfig(static_node_faults=4),
        )
        sim = NetworkSimulator(cfg)
        sim.engine.run(4000)
        assert delivered_count(sim.engine) > 100
