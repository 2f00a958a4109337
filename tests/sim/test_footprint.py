"""What a simulator holds, and that dropping it frees it.

Three properties of the ownership design (DESIGN.md, "Ownership and
footprint"):

* **freed on drop** — nothing the engine owns points back at it, so
  ``del sim`` reclaims the whole graph by reference count, with the
  cycle collector disabled, after every kind of run;
* **footprint budgets** — construction builds no per-channel container,
  and the geometry memos shared per ``(k, n)`` stay O(N);
* **order independence** — a shared table warmed by one simulation
  changes no other simulation's result.
"""

import dataclasses
import gc
import json
import tracemalloc
import weakref

import pytest

from repro.experiments import formula_table
from repro.experiments.common import PAPER, base_config
from repro.faults import chaos
from repro.network.topology import cube
from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.sim.engine import Engine
from repro.sim.postmortem import DeadlockError
from repro.sim.simulator import NetworkSimulator
from tests.sim.test_determinism import (
    GOLDEN_PATH,
    PINNED_CONFIGS,
    result_digest,
)

#: Types whose instances a finished simulator consists of.
LEAKABLE = ("Engine", "VirtualChannel", "MessageRecord")


def _small_cfg(**overrides):
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.10, message_length=8,
        warmup_cycles=100, measure_cycles=400, drain_cycles=2000, seed=1,
        **overrides,
    )


def _plain():
    sim = NetworkSimulator(_small_cfg())
    assert sim.run().delivered > 0
    return sim


def _recovery():
    sim = NetworkSimulator(_small_cfg(
        faults=FaultConfig(static_node_faults=2, dynamic_faults=3,
                           dynamic_start=100),
        recovery=RecoveryConfig(tail_ack=True, retransmit=True),
    ))
    assert sim.run().delivered > 0
    return sim


def _campaign(monkeypatch, fn, *args):
    """Run a chaos / storm body; return the simulator it built inside."""
    made = []
    original = chaos.NetworkSimulator

    def capture(*a, **kw):
        made.append(original(*a, **kw))
        return made[-1]

    monkeypatch.setattr(chaos, "NetworkSimulator", capture)
    fn(*args)
    monkeypatch.undo()
    (sim,) = made
    return sim


def _strict_deadlock():
    sim = NetworkSimulator(SimulationConfig(
        k=6, n=2, protocol="det", protocol_params={"dateline": False},
        offered_load=0.30, message_length=16, warmup_cycles=100,
        measure_cycles=3000, watchdog_cycles=120, max_header_wait=6000,
        resilience=ResilienceConfig(max_deadlock_recoveries=0), seed=0,
    ))
    try:
        sim.run()
    except DeadlockError as error:
        assert error.diagnosis is not None
    else:
        pytest.fail("seed 0 is pinned to deadlock in strict mode")
    return sim


CASES = {
    "plain": lambda mp: _plain(),
    "recovery": lambda mp: _recovery(),
    "chaos-tp": lambda mp: _campaign(
        mp, chaos.run_one, chaos.ChaosSpec(measure_cycles=400), 3, "tp"),
    "chaos-det-naive": lambda mp: _campaign(
        mp, chaos.run_one, chaos.ChaosSpec(measure_cycles=400), 3,
        "det-naive"),
    "storm-reconfig": lambda mp: _campaign(
        mp, chaos.run_storm_one, chaos.StormSpec(measure_cycles=500),
        "gridlock", 3, "reconfig"),
    "strict-deadlock": lambda mp: _strict_deadlock(),
}


def _unreachable_leakables():
    """Instances of ``LEAKABLE`` types only the cycle collector can free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = [type(o).__name__ for o in gc.garbage
                 if type(o).__name__ in LEAKABLE]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


@pytest.fixture
def collector_off():
    gc.collect()  # other tests' garbage is not ours
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulator_freed_on_drop(case, monkeypatch, collector_off):
    sim = CASES[case](monkeypatch)
    engine = weakref.ref(sim.engine)
    assert engine().records, "the run must have finished some messages"
    del sim
    assert engine() is None, "a finished simulator survived `del sim`"
    assert _unreachable_leakables() == []


def test_preflight_grid_leaves_no_garbage(collector_off):
    """``benchmarks/perf/run.py``'s preflight builds 48 paper-scale
    engines in the benchmark's parent process; what they leave behind
    floors every child's ``ru_maxrss`` (EXPERIMENTS.md)."""
    built = []
    original = Engine.__init__

    def counting(self, *args, **kwargs):
        built.append(weakref.ref(self))
        original(self, *args, **kwargs)

    Engine.__init__ = counting
    try:
        rows = formula_table.run(link_grid=(1, 2, 4, 7),
                                 length_grid=(1, 8, 32), k_grid=(1, 3))
    finally:
        Engine.__init__ = original
    assert len(built) == len(rows) == 48 and all(r.match for r in rows)
    assert not any(ref() for ref in built)
    assert _unreachable_leakables() == []


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
def _fig12_cfg():
    """The ``tp/load0.18`` job of the benchmark's ``fig12-faultfree``."""
    scale = dataclasses.replace(PAPER, warmup=500, measure=1200, drain=8000)
    return base_config(scale, "tp", {"k_unsafe": 0}, offered_load=0.18,
                       seed=1)


def test_second_simulator_construction_budget():
    """A 16-ary 2-cube simulator costs under 900 KB before its first
    cycle once the shared geometry exists (2,575 KB with per-channel
    queues, arbiters and a geometry of its own)."""
    cfg = _fig12_cfg()
    first = NetworkSimulator(cfg)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        second = NetworkSimulator(cfg)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second.engine.topology is first.engine.topology
    assert (after - before) / 1024 <= 900


def test_shared_tables_stay_linear_and_queues_only_where_tokens_are():
    sim = NetworkSimulator(_fig12_cfg())
    topology = sim.engine.topology
    seen_busy = 0

    class Watch:
        def next_event_cycle(self, engine):
            return engine.cycle + 1

        def __call__(self, engine):
            nonlocal seen_busy
            plane = engine.control_out
            seen_busy = max(seen_busy, len(plane))
            # One FIFO per busy channel, none empty.
            assert len(plane) == len(plane.channels()) <= len(list(plane))

    result = sim.run(on_cycle=Watch())
    assert result.drained and seen_busy > 0
    assert not sim.engine.control_out and not sim.engine.ack_out
    assert 0 < len(topology.escape_hops) <= (
        4 * topology.n * topology.num_nodes
    )
    assert 0 < len(topology._offsets_cache) <= topology.k ** topology.n
    assert len(topology._profitable_cache) <= 4 ** topology.n


def test_ack_plane_stays_empty_without_hardware_acks():
    sim = NetworkSimulator(_small_cfg(protocol_params={"k_unsafe": 3}))

    class Watch:
        def next_event_cycle(self, engine):
            return engine.cycle + 1

        def __call__(self, engine):
            assert not engine.ack_out

    assert sim.run(on_cycle=Watch()).delivered > 0


# ----------------------------------------------------------------------
# Order independence
# ----------------------------------------------------------------------
def test_results_do_not_depend_on_what_ran_before():
    """Two pinned configs of one ``(k, n)``, in both orders, each order
    starting from a cold shared geometry: the golden digests both
    times, whichever simulation warmed the tables."""
    golden = json.loads(GOLDEN_PATH.read_text())
    names = ("proto-wr-dp", "static-faults")
    for order in (names, names[::-1]):
        cube.cache_clear()
        sims = [NetworkSimulator(PINNED_CONFIGS[name]()) for name in order]
        assert sims[0].engine.topology is sims[1].engine.topology
        for name, sim in zip(order, sims):
            assert result_digest(sim.run()) == golden[name], (name, order)
        assert sims[0].engine.topology.escape_hops
