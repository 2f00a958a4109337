"""Graph-theoretic properties of the torus and its fault resilience."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube


class TestTorusRegularity:
    @pytest.mark.parametrize("k,n", [(4, 2), (8, 2), (3, 3), (5, 2)])
    def test_vertex_transitive_degree(self, k, n):
        topo = KAryNCube(k, n)
        for node in range(0, topo.num_nodes, max(1, topo.num_nodes // 7)):
            assert len(set(topo.neighbors(node))) == 2 * n

    def test_bisection_channels(self):
        # A k-ary 2-cube has 2k channels crossing each dimension cut.
        topo = KAryNCube(8, 2)
        crossing = [
            c for c in topo.channels
            if c.dim == 0
            and topo.coords(c.src)[0] == 3 and topo.coords(c.dst)[0] == 4
        ]
        assert len(crossing) == topo.k

    def test_diameter(self):
        topo = KAryNCube(8, 2)
        assert max(
            topo.distance(0, d) for d in range(topo.num_nodes)
        ) == 2 * (topo.k // 2)

    def test_average_distance_uniform(self):
        # Mean minimal distance on a k-ary 2-cube is ~k/2 (k even).
        topo = KAryNCube(8, 2)
        total = sum(topo.distance(0, d) for d in range(topo.num_nodes))
        mean = total / (topo.num_nodes - 1)
        assert 3.9 < mean < 4.2


class TestFaultResilience:
    def test_budget_minus_one_faults_never_disconnect(self):
        """2n - 1 random node faults leave the healthy net connected
        (the theorem budget guarantees a healthy neighbor exists)."""
        topo = KAryNCube(6, 2)
        for seed in range(12):
            rng = random.Random(seed)
            faults = FaultState(topo)
            nodes = rng.sample(range(topo.num_nodes), 3)
            for node in nodes:
                faults.fail_node(node)
            assert faults.healthy_nodes_connected(), nodes

    def test_2n_faults_can_disconnect(self):
        topo = KAryNCube(6, 2)
        faults = FaultState(topo)
        for node in topo.neighbors(0):  # isolate node 0
            faults.fail_node(node)
        assert not faults.healthy_nodes_connected()
        assert len(faults.faulty_nodes) == 2 * topo.n

    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_healthy_distance_at_least_minimal(self, seed):
        rng = random.Random(seed)
        topo = KAryNCube(6, 2)
        faults = FaultState(topo)
        for node in rng.sample(range(1, topo.num_nodes - 1), 3):
            faults.fail_node(node)
        src, dst = 0, topo.num_nodes - 1
        if faults.is_node_faulty(src) or faults.is_node_faulty(dst):
            return
        healthy = faults.shortest_healthy_distance(src, dst)
        if healthy is not None:
            assert healthy >= topo.distance(src, dst)

    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_unsafe_channels_border_faults(self, seed):
        """Every unsafe channel's head node has a faulty incident
        channel, and vice versa (Figure 3's marking rule)."""
        rng = random.Random(seed)
        topo = KAryNCube(6, 2)
        faults = FaultState(topo)
        for node in rng.sample(range(topo.num_nodes), 2):
            faults.fail_node(node)
        for ch_id in range(topo.num_channels):
            if not faults.channel_unsafe[ch_id]:
                continue
            head = topo.channel(ch_id).dst
            incident_faulty = any(
                faults.channel_faulty[topo.channel_id(head, d, s)]
                for d, s in topo.ports(head)
            )
            assert incident_faulty
