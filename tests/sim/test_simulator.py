"""Unit tests for the simulator facade and protocol factory."""

import pytest

from repro.core.two_phase import TwoPhaseProtocol
from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.routing.duato import DuatoProtocol
from repro.routing.mb import MBmProtocol
from repro.routing.oblivious import DimensionOrderProtocol
from repro.sim.config import FaultConfig, SimulationConfig
from repro.sim.simulator import (
    NetworkSimulator,
    idle_engine,
    make_protocol,
    run_config,
)


class TestFactory:
    def test_known_protocols(self):
        assert isinstance(make_protocol("dp"), DuatoProtocol)
        assert isinstance(make_protocol("mb"), MBmProtocol)
        assert isinstance(make_protocol("tp"), TwoPhaseProtocol)
        assert isinstance(make_protocol("det"), DimensionOrderProtocol)

    def test_params_forwarded(self):
        proto = make_protocol("tp", k_unsafe=3, misroute_limit=4)
        assert proto.flow_control.k_unsafe == 3
        assert proto.misroute_limit == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            make_protocol("chaos")

    def test_bad_params_surface(self):
        with pytest.raises(TypeError):
            make_protocol("dp", k_unsafe=3)


class TestIdleEngine:
    def test_fault_state_of_another_geometry_rejected(self):
        """The fault state and the config state one network: an engine
        does not run a 4-ary cube's faults on an 8-ary config."""
        with pytest.raises(ValueError, match="4-ary 2-cube"):
            idle_engine("tp", k=8, fault_state=FaultState(KAryNCube(4, 2)))

class TestNetworkSimulator:
    def test_static_faults_placed(self):
        cfg = SimulationConfig(
            k=6, n=2, protocol="tp",
            faults=FaultConfig(static_node_faults=4),
            warmup_cycles=10, measure_cycles=10, seed=5,
        )
        faults = NetworkSimulator(cfg).engine.faults
        assert len(faults.faulty_nodes) == 4
        assert faults.healthy_nodes_connected()

    def test_traffic_excludes_faulty_nodes(self):
        cfg = SimulationConfig(
            k=6, n=2, protocol="tp",
            faults=FaultConfig(static_node_faults=4),
            warmup_cycles=10, measure_cycles=10, seed=5,
        )
        faults = NetworkSimulator(cfg).engine.faults
        assert faults.healthy_nodes == sorted(
            set(range(faults.topology.num_nodes)) - faults.faulty_nodes
        )

    def test_dynamic_schedule_built(self):
        cfg = SimulationConfig(
            k=6, n=2, protocol="tp",
            faults=FaultConfig(dynamic_faults=3),
            warmup_cycles=100, measure_cycles=100,
        )
        sim = NetworkSimulator(cfg)
        assert sim.engine.dynamic_schedule is not None
        assert len(sim.engine.dynamic_schedule.events) == 3

    def test_run_config_one_shot(self):
        cfg = SimulationConfig(
            k=5, n=2, protocol="tp", offered_load=0.05,
            warmup_cycles=100, measure_cycles=400, seed=3,
        )
        result = run_config(cfg)
        assert result.delivered > 0
        assert result.latency_count == len(result.latencies)

    def test_same_seed_reproducible(self):
        cfg = SimulationConfig(
            k=5, n=2, protocol="tp", offered_load=0.08,
            warmup_cycles=100, measure_cycles=500, seed=42,
        )
        a = run_config(cfg)
        b = run_config(cfg)
        assert a.latency_mean == b.latency_mean
        assert a.throughput == b.throughput
        assert a.delivered == b.delivered

    def test_different_seed_differs(self):
        base = SimulationConfig(
            k=5, n=2, protocol="tp", offered_load=0.08,
            warmup_cycles=100, measure_cycles=500, seed=1,
        )
        a = run_config(base)
        b = run_config(base.with_(seed=2))
        assert (a.latency_mean, a.delivered) != (b.latency_mean, b.delivered)

    def test_results_before_run_rejected(self):
        """Summarizing an engine that never ran has no measurement
        window to normalize throughput by; it must refuse loudly."""
        cfg = SimulationConfig(k=5, n=2, protocol="tp",
                               warmup_cycles=10, measure_cycles=10)
        with pytest.raises(ValueError, match="measurement window"):
            NetworkSimulator(cfg).results()
