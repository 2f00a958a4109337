"""Unit tests for the traffic generator and its destination patterns."""

import random

import pytest

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.sim.config import SimulationConfig
from repro.sim.engine import Engine
from repro.sim.traffic import PATTERNS, TrafficGenerator


def generator(pattern, topology, dead=(), seed=1, **params):
    """A ``pattern`` generator over ``topology`` with ``dead`` failed."""
    faults = FaultState(topology)
    for node in dead:
        faults.fail_node(node)
    config = SimulationConfig(
        k=topology.k, n=topology.n, traffic=pattern, traffic_params=params,
    )
    return TrafficGenerator(config, faults, random.Random(seed))


def all_but(topology, alive):
    return [n for n in range(topology.num_nodes) if n not in alive]


class TestUniform:
    def test_never_self(self, torus8):
        gen = generator("uniform", torus8)
        for src in (0, 17, 63):
            for _ in range(100):
                assert gen.destination(src) != src

    def test_covers_many_destinations(self, torus8):
        gen = generator("uniform", torus8)
        seen = {gen.destination(0) for _ in range(600)}
        assert len(seen) > torus8.num_nodes // 2

    def test_respects_healthy_set(self, torus8):
        gen = generator("uniform", torus8, dead=all_but(torus8, {0, 1, 2, 3}))
        for _ in range(50):
            assert gen.destination(0) in {1, 2, 3}

    def test_none_when_alone(self, torus8):
        gen = generator("uniform", torus8, dead=all_but(torus8, {5}))
        assert gen.destination(5) is None

    def test_reads_faults_failed_after_construction(self, torus8):
        gen = generator("uniform", torus8)
        for node in all_but(torus8, {0, 9}):
            gen.faults.fail_node(node)
        assert gen.destination(0) == 9


class TestDeterministicPatterns:
    def test_nearest_is_one_hop(self, torus8):
        gen = generator("nearest", torus8)
        for src in range(0, 64, 5):
            dst = gen.destination(src)
            assert torus8.distance(src, dst) == 1

    def test_transpose_swaps_coords(self, torus8):
        gen = generator("transpose", torus8)
        src = torus8.node_id((2, 5))
        assert gen.destination(src) == torus8.node_id((5, 2))

    def test_transpose_diagonal_is_none(self, torus8):
        gen = generator("transpose", torus8)
        assert gen.destination(torus8.node_id((3, 3))) is None

    def test_tornado_half_ring(self, torus8):
        gen = generator("tornado", torus8)
        src = torus8.node_id((1, 0))
        dst = gen.destination(src)
        assert torus8.coords(dst) == ((1 + 3) % 8, 0)

    def test_complement(self, torus8):
        gen = generator("complement", torus8)
        src = torus8.node_id((1, 2))
        assert gen.destination(src) == torus8.node_id((6, 5))

    def test_pattern_excludes_failed_partner(self, torus8):
        partner = torus8.node_id((5, 2))
        gen = generator("transpose", torus8, dead=[partner])
        assert gen.destination(torus8.node_id((2, 5))) is None


class TestHotspot:
    PARAMS = {"hotspot_fraction": 1.0, "hotspot_nodes": [8, 24, 40]}

    def test_all_traffic_hits_hot_nodes(self, torus8):
        gen = generator("hotspot", torus8, **self.PARAMS)
        for _ in range(100):
            assert gen.destination(0) in {8, 24, 40}

    def test_hot_source_excluded(self, torus8):
        gen = generator("hotspot", torus8, **self.PARAMS)
        for _ in range(100):
            assert gen.destination(8) in {24, 40}

    def test_default_hot_nodes_evenly_spaced(self, torus8):
        gen = generator(
            "hotspot", torus8, hotspot_fraction=1.0, hotspot_count=4,
        )
        assert gen.hotspots == [0, 16, 32, 48]

    def test_dead_hot_node_redistributes(self, torus8):
        """Regression: a hotspot dying mid-run must move its weight to
        the surviving hot nodes, not keep targeting the corpse."""
        gen = generator("hotspot", torus8, dead=[24], **self.PARAMS)
        seen = {gen.destination(0) for _ in range(200)}
        assert 24 not in seen
        assert seen == {8, 40}

    def test_whole_hot_set_dead_degrades_to_uniform(self, torus8):
        gen = generator("hotspot", torus8, dead=[8, 24, 40], **self.PARAMS)
        alive = set(gen.faults.healthy_nodes)
        seen = {gen.destination(0) for _ in range(400)}
        assert seen <= alive - {0}
        assert len(seen) > 30  # genuinely uniform, not a corpse target

    def test_hot_node_failing_mid_run_redistributes(self, torus8):
        gen = generator("hotspot", torus8, **self.PARAMS)
        assert {gen.destination(0) for _ in range(200)} == {8, 24, 40}
        gen.faults.fail_node(24)
        assert {gen.destination(0) for _ in range(200)} == {8, 40}

    def test_bad_params_rejected(self, torus8):
        with pytest.raises(ValueError):
            generator("hotspot", torus8, hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            generator("hotspot", torus8, hotspot_nodes=[999])


class TestValidation:
    def test_unknown_pattern(self, torus8):
        with pytest.raises(ValueError):
            generator("zipf", torus8)

    def test_pattern_list_documented(self):
        assert "uniform" in PATTERNS


class TestEngineTraffic:
    def test_failed_nodes_neither_send_nor_receive(self):
        """An engine on a fault state with a failed node offers no
        message from or to it: the generator reads the engine's
        ``FaultState``, not a healthy list of its own."""
        topo = KAryNCube(4, 2)
        faults = FaultState(topo)
        faults.fail_node(5)
        cfg = SimulationConfig(
            k=4, n=2, protocol="tp", offered_load=0.2, message_length=8,
            warmup_cycles=0, measure_cycles=300,
        )
        engine = Engine(cfg, faults)
        offers = []
        pick = engine.traffic.destination

        def spy(src):
            dst = pick(src)
            offers.append((src, dst))
            return dst

        engine.traffic.destination = spy
        engine.run(300)
        assert len(offers) > 50
        assert all(src != 5 and dst != 5 for src, dst in offers)
        assert all(5 not in (r.src, r.dst) for r in engine.records)
