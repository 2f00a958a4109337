"""Tests for the hardware-acknowledgment extension (Section 7.0)."""

from repro.sim.config import SimulationConfig
from repro.sim.simulator import NetworkSimulator, idle_engine

from tests.conftest import drain_engine


def scouting_engine(hardware_acks: bool, K: int = 3):
    return idle_engine(
        "det", {"flow": "sr", "k": K}, k=12, message_length=8,
        hardware_acks=hardware_acks,
    )


class TestLogicalEquivalence:
    """'The logical behavior remains unchanged' — same latency on an
    idle network, acknowledgments just stop consuming the flit slot."""

    def test_idle_latency_identical(self):
        latencies = {}
        for hw in (False, True):
            engine = scouting_engine(hw)
            msg = engine.inject(0, 5, length=8)
            drain_engine(engine)
            latencies[hw] = msg.delivered_cycle - msg.created_cycle
        assert latencies[False] == latencies[True]

    def test_acks_still_counted(self):
        engine = scouting_engine(True)
        engine.inject(0, 5, length=8)
        drain_engine(engine)
        # Header hops + acks + path ack all counted as control flits.
        assert engine.control_flits_sent > 5

    def test_ack_queues_drain(self):
        engine = scouting_engine(True)
        engine.inject(0, 5, length=8)
        drain_engine(engine)
        assert not engine.ack_out


class TestBandwidthEffect:
    def test_hw_acks_free_link_bandwidth_under_load(self):
        """With heavy conservative-SR ack traffic, dedicated wires must
        not hurt — and typically help — accepted throughput."""
        def throughput(hw: bool) -> float:
            cfg = SimulationConfig(
                k=6, n=2, protocol="det",
                protocol_params={"flow": "sr", "k": 2},
                offered_load=0.35, message_length=8,
                warmup_cycles=300, measure_cycles=1500, seed=9,
                hardware_acks=hw,
            )
            return NetworkSimulator(cfg).run().throughput

        assert throughput(True) >= throughput(False) * 0.98

    def test_ack_wires_used_only_when_enabled(self):
        """Acks ride the dedicated wires iff the extension is on."""
        for hw in (False, True):
            engine = scouting_engine(hw)
            engine.inject(0, 5, length=8)
            saw_ack_queue = False
            for _ in range(60):
                engine.step()
                if engine.ack_out:
                    saw_ack_queue = True
            assert saw_ack_queue == hw
