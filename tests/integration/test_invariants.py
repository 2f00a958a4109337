"""Property-based whole-system invariants (hypothesis).

Random workloads over random fault sets, random protocols, and random
message mixes must always satisfy:

* flit conservation — every injected flit is buffered, ejected, or
  accounted as killed;
* termination — every message reaches a terminal state;
* resource recovery — after draining, every virtual channel is free;
* no deadlock — the engine watchdog never fires.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injection import place_random_node_faults
from repro.faults.model import FaultState
from repro.network.topology import KAryNCube

from tests.conftest import build_engine, delivered_count


protocol_strategy = st.sampled_from(
    [("tp", {}), ("tp", {"k_unsafe": 3}), ("mb", {}), ("dp", {})]
)


@given(
    proto=protocol_strategy,
    seed=st.integers(min_value=0, max_value=10_000),
    num_messages=st.integers(min_value=1, max_value=10),
    length=st.integers(min_value=1, max_value=12),
    num_faults=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_random_workload_invariants(proto, seed, num_messages, length,
                                    num_faults):
    protocol_name, params = proto
    if protocol_name == "dp" and num_faults:
        num_faults = 0  # DP is the fault-free baseline
    rng = random.Random(seed)
    topo = KAryNCube(6, 2)
    faults = FaultState(topo)
    if num_faults:
        place_random_node_faults(faults, num_faults, rng)
    engine = build_engine(
        protocol_name, k=6, faults=faults, seed=seed,
        protocol_params=params, message_length=length,
    )
    healthy = [
        n for n in range(topo.num_nodes) if not faults.is_node_faulty(n)
    ]
    messages = []
    for _ in range(num_messages):
        src = rng.choice(healthy)
        dst = rng.choice([n for n in healthy if n != src])
        messages.append(engine.inject(src, dst, length=length))

    assert engine.drain(30_000), "network failed to drain"

    for msg in messages:
        assert msg.is_terminal()
        assert msg.flit_conservation_ok()
        if msg.status.name == "DELIVERED":
            assert msg.ejected == msg.total_flits
            assert msg.delivered_cycle is not None
            # Latency can never beat the wormhole floor.
            assert (
                msg.delivered_cycle - msg.created_cycle
                >= topo.distance(msg.src, msg.dst) + length
            )
    assert engine.channels.all_free()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    load=st.sampled_from([0.05, 0.15, 0.3]),
)
@settings(max_examples=8, deadline=None)
def test_random_traffic_conservation(seed, load):
    """Continuous random traffic: global flit accounting holds."""
    from repro.sim.config import SimulationConfig
    from repro.sim.simulator import NetworkSimulator

    cfg = SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=load,
        message_length=8, warmup_cycles=50, measure_cycles=300,
        drain_cycles=6000, seed=seed,
    )
    sim = NetworkSimulator(cfg)
    result = sim.run()
    engine = sim.engine
    assert engine.network_drained()
    # RunResult filters to the measurement window; the records are
    # global.
    assert result.delivered <= delivered_count(engine)
    # Every accepted message reached a terminal record.
    assert len(engine.records) >= engine.accepted_messages


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=10, deadline=None)
def test_backtracking_never_carries_data(seed):
    """pop_path()'s no-data assertion never trips under random faults.

    (The engine would raise RuntimeError through drain if it did.)
    """
    rng = random.Random(seed)
    topo = KAryNCube(6, 2)
    faults = FaultState(topo)
    place_random_node_faults(faults, 3, rng)
    engine = build_engine(
        "tp", k=6, faults=faults, seed=seed,
        protocol_params={"k_unsafe": 3}, message_length=6,
    )
    healthy = [
        n for n in range(topo.num_nodes) if not faults.is_node_faulty(n)
    ]
    for _ in range(6):
        src = rng.choice(healthy)
        dst = rng.choice([n for n in healthy if n != src])
        engine.inject(src, dst, length=6)
    assert engine.drain(30_000)
    assert engine.channels.all_free()
