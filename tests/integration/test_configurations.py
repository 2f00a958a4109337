"""Cross-configuration matrix tests: dimensions, radices, traffic.

The paper's analysis is parametric in n and k (Theorems 1/2, the 2n-1
fault budget); the simulator must honor that generality, not just the
16-ary 2-cube of the evaluation.
"""

import random

import pytest

from repro.faults.injection import place_random_node_faults
from repro.faults.model import FaultState
from repro.network.topology import KAryNCube

from tests.conftest import build_engine, drain_engine


class TestThreeDimensions:
    """4-ary 3-cube: fault budget 2n - 1 = 5."""

    @pytest.mark.parametrize("protocol", ["tp", "mb"])
    @pytest.mark.parametrize("seed", range(3))
    def test_delivery_within_3d_fault_budget(self, protocol, seed):
        rng = random.Random(seed)
        topo = KAryNCube(4, 3)
        faults = FaultState(topo)
        place_random_node_faults(faults, 5, rng)
        engine = build_engine(protocol, k=4, n=3, faults=faults, seed=seed)
        healthy = [
            n for n in range(topo.num_nodes)
            if not faults.is_node_faulty(n)
        ]
        msgs = []
        for _ in range(10):
            src = rng.choice(healthy)
            dst = rng.choice([n for n in healthy if n != src])
            msgs.append(engine.inject(src, dst, length=6))
        drain_engine(engine)
        assert all(m.status.name == "DELIVERED" for m in msgs)

    def test_wormhole_floor_3d(self):
        from repro.core.latency_model import t_wormhole
        from tests.conftest import run_to_completion

        engine = build_engine("tp", k=4, n=3)
        topo = engine.topology
        dst = topo.node_id((1, 1, 1))
        msg = engine.inject(0, dst, length=8)
        run_to_completion(engine, msg)
        assert msg.delivered_cycle - msg.created_cycle == t_wormhole(3, 8)


class TestOddRadix:
    def test_odd_radix_delivery(self):
        engine = build_engine("tp", k=7)
        topo = engine.topology
        msgs = [
            engine.inject(0, topo.node_id((3, 3)), length=6),
            engine.inject(5, topo.node_id((6, 6)), length=6),
        ]
        drain_engine(engine)
        assert all(m.status.name == "DELIVERED" for m in msgs)

    def test_odd_radix_no_half_way_tie(self):
        topo = KAryNCube(7, 2)
        for dst in range(1, 7):
            ports = topo.profitable_ports(0, topo.node_id((dst, 0)))
            assert len(ports) == 1  # never both directions


class TestTrafficPatternsEndToEnd:
    @pytest.mark.parametrize(
        "pattern", ["uniform", "nearest", "transpose", "tornado",
                    "complement"]
    )
    def test_pattern_runs_and_delivers(self, pattern):
        from repro.sim.config import SimulationConfig
        from repro.sim.simulator import NetworkSimulator

        cfg = SimulationConfig(
            k=6, n=2, protocol="tp", traffic=pattern,
            offered_load=0.05, warmup_cycles=100, measure_cycles=600,
            seed=2,
        )
        result = NetworkSimulator(cfg).run()
        assert result.delivered > 0
        assert result.killed == 0

    def test_tornado_saturates_below_uniform(self):
        """Tornado concentrates on one ring direction: lower capacity."""
        from repro.sim.config import SimulationConfig
        from repro.sim.simulator import NetworkSimulator

        def tput(pattern):
            cfg = SimulationConfig(
                k=8, n=2, protocol="tp", traffic=pattern,
                offered_load=0.6, warmup_cycles=300,
                measure_cycles=1500, seed=2,
            )
            return NetworkSimulator(cfg).run().throughput

        assert tput("tornado") < tput("uniform")
