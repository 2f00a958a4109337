"""Integration tests for dynamic faults under live traffic (Fig 16/17)."""

import pytest

from repro.sim.config import FaultConfig, RecoveryConfig, SimulationConfig
from repro.sim.simulator import NetworkSimulator


def run_dynamic(dynamic_faults, tail_ack, retransmit, seed=11, load=0.08):
    cfg = SimulationConfig(
        k=8, n=2, protocol="tp", offered_load=load,
        warmup_cycles=300, measure_cycles=2000, drain_cycles=8000,
        seed=seed,
        faults=FaultConfig(
            dynamic_faults=dynamic_faults, dynamic_start=400,
        ),
        recovery=RecoveryConfig(
            tail_ack=tail_ack, retransmit=retransmit, max_retransmits=3
        ),
    )
    sim = NetworkSimulator(cfg)
    result = sim.run()
    return sim, result


class TestRecoveryOnly:
    def test_network_recovers_all_resources(self):
        sim, result = run_dynamic(4, tail_ack=False, retransmit=False)
        assert sim.engine.network_drained()

    def test_some_messages_may_be_lost_but_bounded(self):
        losses = 0
        delivered = 0
        for seed in (3, 7, 11):
            _, result = run_dynamic(
                6, tail_ack=False, retransmit=False, seed=seed
            )
            losses += result.killed
            delivered += result.delivered
        assert delivered > 0
        # "a very low probability of losing a message"
        assert losses < delivered * 0.05


class TestReliableDelivery:
    def test_interrupted_messages_retransmitted(self):
        killed = 0
        retx = 0
        for seed in (3, 7, 11, 19):
            sim, result = run_dynamic(6, tail_ack=True, retransmit=True,
                                      seed=seed)
            killed += result.killed
            retx += result.retransmissions
        assert killed == 0, "reliable mode must not lose messages"
        assert retx > 0, "expected at least one retransmission"

    def test_tail_ack_generates_extra_control_traffic(self):
        sim_plain, _ = run_dynamic(1, tail_ack=False, retransmit=False)
        sim_tack, _ = run_dynamic(1, tail_ack=True, retransmit=True)
        assert (
            sim_tack.engine.control_flits_sent
            > sim_plain.engine.control_flits_sent * 1.5
        )

    def test_tail_ack_throttles_throughput_at_high_load(self):
        """Figure 17's shape: with-TAck saturates earlier."""
        _, plain = run_dynamic(2, tail_ack=False, retransmit=False,
                               load=0.3)
        _, tack = run_dynamic(2, tail_ack=True, retransmit=True, load=0.3)
        assert tack.throughput < plain.throughput

    def test_low_load_overhead_insignificant(self):
        _, plain = run_dynamic(2, tail_ack=False, retransmit=False,
                               load=0.03)
        _, tack = run_dynamic(2, tail_ack=True, retransmit=True, load=0.03)
        assert tack.latency_mean == pytest.approx(
            plain.latency_mean, rel=0.15
        )
