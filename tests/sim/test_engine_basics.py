"""Engine behaviour tests: injection, ejection, queues, bookkeeping."""

import random

import pytest

from repro.faults.injection import DynamicFaultSchedule, FaultEvent
from repro.network.topology import PLUS
from repro.sim.config import SimulationConfig
from repro.sim.engine import INJECTION_QUEUE_LIMIT, DeadlockError, Engine
from repro.sim.message import MessageStatus
from repro.sim.simulator import NetworkSimulator, make_protocol

from tests.conftest import build_engine, drain_engine, run_to_completion


class TestInjection:
    def test_inject_rejects_self_loop(self):
        engine = build_engine("tp")
        with pytest.raises(ValueError):
            engine.inject(3, 3)

    @pytest.mark.parametrize("src,dst,length", [
        (0, 5, 0),     # a message with no flit never delivers
        (0, 16, None),  # one past the last node of the 4-ary 2-cube
        (-1, 5, None),
    ], ids=["zero-length", "destination-past-end", "negative-source"])
    def test_inject_rejects_what_the_config_would(self, src, dst, length):
        """Rejected at the call, as ``SimulationConfig`` rejects a
        ``message_length`` below 1, not cycles later inside routing."""
        engine = build_engine("tp", k=4)
        with pytest.raises(ValueError):
            engine.inject(src, dst, length=length)
        assert not engine.active and not any(engine.queues)

    def test_inject_accepts_a_failed_destination(self):
        engine = build_engine("tp")
        engine.faults.fail_node(5)
        assert engine.inject(0, 5).status is MessageStatus.ACTIVE

    def test_second_message_waits_in_queue(self):
        engine = build_engine("tp", k=8)
        first = engine.inject(0, 4, length=8)
        second = engine.inject(0, 4, length=8)
        assert first.status is MessageStatus.ACTIVE
        assert second.status is MessageStatus.QUEUED

    def test_queued_message_launches_after_first_clears_source(self):
        engine = build_engine("tp", k=8)
        engine.inject(0, 4, length=4)
        second = engine.inject(0, 4, length=4)
        drain_engine(engine)
        assert second.status is MessageStatus.DELIVERED

    def test_per_source_serialization_orders_delivery(self):
        engine = build_engine("tp", k=8)
        first = engine.inject(0, 4, length=8)
        second = engine.inject(0, 4, length=8)
        drain_engine(engine)
        assert first.delivered_cycle < second.delivered_cycle


class TestEjectionSharing:
    def test_two_messages_same_destination_share_pe_link(self):
        engine = build_engine("tp", k=8, message_length=16)
        a = engine.inject(0, 2, length=16)
        b = engine.inject(4, 2, length=16)  # same destination, other side
        drain_engine(engine)
        assert a.status is MessageStatus.DELIVERED
        assert b.status is MessageStatus.DELIVERED
        # Sharing the single ejection link must slow at least one of
        # them beyond its idle-network latency (2 hops + 16 flits = 18).
        latencies = sorted(
            m.delivered_cycle - m.created_cycle for m in (a, b)
        )
        assert latencies[1] > 18


class TestCongestionControl:
    def test_queue_limit_rejects_offered_traffic(self):
        cfg = SimulationConfig(
            k=4, n=2, protocol="tp", offered_load=1.0,
            message_length=32, warmup_cycles=0, measure_cycles=300,
        )
        sim = NetworkSimulator(cfg)
        sim.engine.run(300)
        assert sim.engine.rejected_messages > 0
        for queue in sim.engine.queues:
            assert len(queue) <= INJECTION_QUEUE_LIMIT

    def test_accepted_not_above_offered(self):
        cfg = SimulationConfig(
            k=4, n=2, protocol="tp", offered_load=0.5,
            warmup_cycles=50, measure_cycles=400,
        )
        result = NetworkSimulator(cfg).run()
        assert result.accepted_load <= result.offered_load + 1e-9


class TestBookkeeping:
    def test_records_appended_on_delivery(self):
        engine = build_engine("tp", k=8)
        engine.inject(0, 5, length=4)
        drain_engine(engine)
        assert len(engine.records) == 1
        rec = engine.records[0]
        assert rec.status == "DELIVERED"
        assert rec.hops >= rec.distance

    def test_network_drained_after_completion(self):
        engine = build_engine("tp", k=8)
        engine.inject(0, 5, length=4)
        drain_engine(engine)
        assert engine.network_drained()

    def test_message_removed_from_tracking(self):
        engine = build_engine("tp", k=8)
        msg = engine.inject(0, 5, length=4)
        drain_engine(engine)
        assert msg.msg_id not in engine.active
        assert msg.msg_id not in engine.pending

    def test_flit_conservation_throughout_run(self):
        engine = build_engine("tp", k=8)
        msgs = [
            engine.inject(0, 9, length=6),
            engine.inject(5, 60, length=6),
            engine.inject(33, 12, length=6),
        ]
        for _ in range(200):
            engine.step()
            for msg in msgs:
                assert msg.flit_conservation_ok()
            if all(m.is_terminal() for m in msgs):
                break

    def test_control_flits_counted_for_decoupled_header(self):
        engine = build_engine("mb", k=8)
        engine.inject(0, 4, length=4)
        drain_engine(engine)
        # Header hops + path ack hops at minimum.
        assert engine.control_flits_sent >= 8

    def test_inline_protocol_uses_no_control_flits(self):
        engine = build_engine("dp", k=8)
        engine.inject(0, 4, length=4)
        drain_engine(engine)
        assert engine.control_flits_sent == 0


class TestDrainContract:
    def test_drain_does_not_wait_for_a_kill_flit(self):
        """``drain()`` returns once every message is terminal; a kill
        flit still running downstream holds its virtual channel a few
        cycles longer, which only ``network_drained()`` sees."""
        engine = build_engine(
            "tp", k=5, message_length=8,
            dynamic_schedule=DynamicFaultSchedule(
                [FaultEvent(cycle=3, kind="link", target=0)]
            ),
        )
        msg = engine.inject(0, 2, length=8)
        assert engine.drain(300)
        assert engine.cycle == 3
        assert msg.status is MessageStatus.KILLED
        assert not engine.network_drained()
        for _ in range(5):
            engine.step()
            if engine.network_drained():
                break
        assert engine.network_drained()


class TestWatchdog:
    def test_deadlock_error_on_artificial_stall(self):
        engine = build_engine("tp", k=4, watchdog_cycles=50)
        msg = engine.inject(0, 5, length=4)
        # Freeze the message so nothing ever progresses.
        msg.teardown = True
        engine.pending.pop(msg.msg_id, None)
        with pytest.raises(DeadlockError):
            for _ in range(200):
                engine.step()

    def test_no_watchdog_when_idle_without_messages(self):
        engine = build_engine("tp", k=4, watchdog_cycles=10)
        for _ in range(100):
            engine.step()  # no messages: idle is fine


class TestMeasurementWindow:
    def test_throughput_counted_only_in_window(self):
        cfg = SimulationConfig(
            k=4, n=2, protocol="tp", offered_load=0.1,
            warmup_cycles=200, measure_cycles=200, drain_cycles=2000,
            seed=5,
        )
        sim = NetworkSimulator(cfg)
        sim.engine.run(cfg.total_cycles)
        measured_at_end = sim.engine.measured_delivered_flits
        sim.engine.drain(cfg.drain_cycles)
        assert sim.engine.measured_delivered_flits == measured_at_end

    def test_measure_window_cycles(self):
        engine = build_engine("tp", warmup_cycles=10, measure_cycles=100)
        assert engine.measure_window_cycles() == 0
        engine.run(10)
        assert engine.measure_window_cycles() == 0
        engine.run(30)
        assert engine.measure_window_cycles() == 30
        engine.run(200)
        assert engine.measure_window_cycles() == 100
