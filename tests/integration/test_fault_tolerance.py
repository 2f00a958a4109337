"""Delivery guarantees under static faults (Sections 3.0 / 4.0).

Within the theorem budget (fewer than 2n node faults, healthy and
connected source/destination) TP and MB-m must deliver every message.
Beyond the budget, messages must still terminate — delivered or
dropped — with all network resources recovered (no deadlock: Theorem
3).
"""

import random

import pytest

from repro.faults.injection import place_random_node_faults
from repro.faults.model import FaultState
from repro.network.topology import KAryNCube, PLUS

from tests.conftest import build_engine, drain_engine


def run_messages_with_faults(protocol, num_faults, seed, k=8,
                             num_messages=12, protocol_params=None):
    """Random faults + random messages; returns (engine, messages)."""
    rng = random.Random(seed)
    topo = KAryNCube(k, 2)
    faults = FaultState(topo)
    place_random_node_faults(faults, num_faults, rng)
    engine = build_engine(
        protocol, k=k, faults=faults, seed=seed,
        protocol_params=protocol_params,
    )
    healthy = [
        n for n in range(topo.num_nodes) if not faults.is_node_faulty(n)
    ]
    messages = []
    for _ in range(num_messages):
        src = rng.choice(healthy)
        dst = rng.choice([n for n in healthy if n != src])
        messages.append(engine.inject(src, dst, length=8))
    return engine, messages


class TestWithinBudget:
    """2n - 1 = 3 faults for the 2-D torus."""

    @pytest.mark.parametrize("protocol", ["tp", "mb"])
    @pytest.mark.parametrize("seed", range(5))
    def test_all_delivered_with_three_faults(self, protocol, seed):
        engine, messages = run_messages_with_faults(protocol, 3, seed)
        drain_engine(engine)
        for msg in messages:
            assert msg.status.name == "DELIVERED", (
                f"{protocol} seed={seed} lost {msg!r}"
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_conservative_tp_delivers(self, seed):
        engine, messages = run_messages_with_faults(
            "tp", 3, seed, protocol_params={"k_unsafe": 3}
        )
        drain_engine(engine)
        assert all(m.status.name == "DELIVERED" for m in messages)


class TestBeyondBudget:
    @pytest.mark.parametrize("protocol", ["tp", "mb"])
    @pytest.mark.parametrize("seed", range(3))
    def test_terminates_and_recovers_with_many_faults(self, protocol, seed):
        engine, messages = run_messages_with_faults(
            protocol, 14, seed, num_messages=20
        )
        drain_engine(engine)
        assert all(m.is_terminal() for m in messages)
        assert engine.channels.all_free()

    def test_most_messages_still_delivered_when_connected(self):
        delivered = total = 0
        for seed in range(4):
            engine, messages = run_messages_with_faults("tp", 10, seed)
            drain_engine(engine)
            delivered += sum(
                1 for m in messages if m.status.name == "DELIVERED"
            )
            total += len(messages)
        assert delivered / total > 0.9


class TestDetourBehaviour:
    def test_blocked_path_produces_detour(self):
        """A wall of faults across the minimal quadrant forces a detour."""
        topo = KAryNCube(8, 2)
        faults = FaultState(topo)
        # Destination (3,0); wall at x=2 around y=0 blocks minimal
        # progress in x near the path.
        for y in (-1, 0, 1):
            faults.fail_node(topo.node_id((2, y % 8)))
        engine = build_engine("tp", k=8, faults=faults)
        dst = topo.node_id((3, 0))
        msg = engine.inject(0, dst, length=8)
        drain_engine(engine)
        assert msg.status.name == "DELIVERED"
        assert msg.detour_count >= 1 or msg.misroute_total >= 1

    def test_sr_bit_set_after_unsafe_crossing(self):
        topo = KAryNCube(8, 2)
        faults = FaultState(topo)
        faults.fail_node(topo.node_id((3, 1)))
        engine = build_engine(
            "tp", k=8, faults=faults, protocol_params={"k_unsafe": 3}
        )
        # Path straight through the fault's neighborhood: (0,0)->(4,0).
        msg = engine.inject(0, topo.node_id((4, 0)), length=8)
        drain_engine(engine)
        assert msg.status.name == "DELIVERED"

    def test_dead_end_alley_backtracks_and_delivers(self):
        from repro.experiments.theorem_table import build_alley

        topo = KAryNCube(8, 2)
        faults, src, end = build_alley(topo, depth=2)
        engine = build_engine("mb", k=8, faults=faults)
        # Destination on the far side, reachable only outside the alley.
        dst = topo.node_id((5, 4))
        msg = engine.inject(src, dst, length=8)
        drain_engine(engine)
        assert msg.status.name == "DELIVERED"

    def test_unreachable_destination_dropped_not_deadlocked(self):
        topo = KAryNCube(8, 2)
        faults = FaultState(topo)
        island = topo.node_id((4, 4))
        for nb in topo.neighbors(island):
            faults.fail_node(nb)
        engine = build_engine("tp", k=8, faults=faults)
        msg = engine.inject(0, island, length=8)
        drain_engine(engine, max_cycles=60_000)
        assert msg.status.name == "DROPPED"
        assert engine.channels.all_free()


class TestDPNotFaultTolerant:
    def test_dp_drops_on_faulty_escape_path(self):
        topo = KAryNCube(8, 2)
        faults = FaultState(topo)
        faults.fail_node(topo.node_id((1, 0)))
        faults.fail_node(topo.node_id((0, 1)))
        engine = build_engine("dp", k=8, faults=faults)
        msg = engine.inject(0, topo.node_id((2, 0)), length=8)
        drain_engine(engine)
        assert msg.status.name == "DROPPED"
