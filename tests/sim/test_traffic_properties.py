"""Property-based tests for the workload contract (DESIGN.md §9).

Three families, pinned with hypothesis:

* **destination contract** — for every pattern, over arbitrary sets of
  failed nodes, a returned destination is healthy and never the source;
* **gap-sampling exactness** — :class:`BernoulliInjection`'s
  cycle-chunked arrivals are exactly the success positions of the flat
  inversion-method Bernoulli realization, and the
  ``idle_cycles``/``skip_cycles`` fast path is arrival-for-arrival and
  RNG-draw-for-draw equivalent to calling ``arrivals`` on every cycle
  (the fast-forward contract, for both Bernoulli and bursty timing);
* **offered-load accuracy** — the time-average arrival rate matches
  the configured offered load within statistical tolerance, including
  the bursty ON-state rescaling.

The CI hypothesis profile (tests/conftest.py) disables deadlines and
derandomizes example selection.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.sim.config import SimulationConfig
from repro.sim.traffic import (
    BernoulliInjection,
    BurstyInjection,
    TrafficGenerator,
    make_injection_process,
)

TOPOLOGY = KAryNCube(6, 2)
NUM_NODES = TOPOLOGY.num_nodes

PATTERN_PARAMS = {
    "uniform": {},
    "hotspot": {"hotspot_fraction": 0.5, "hotspot_count": 3},
    "transpose": {},
    "complement": {},
    "tornado": {},
    "nearest": {},
    "bursty": {},
}


# ======================================================================
# Destination contract
# ======================================================================
def _generator(pattern, seed, dead=()):
    faults = FaultState(TOPOLOGY)
    for node in sorted(dead):
        faults.fail_node(node)
    config = SimulationConfig(
        k=TOPOLOGY.k, n=TOPOLOGY.n, traffic=pattern,
        traffic_params=PATTERN_PARAMS[pattern],
    )
    return TrafficGenerator(config, faults, random.Random(seed))


@given(
    pattern=st.sampled_from(sorted(PATTERN_PARAMS)),
    seed=st.integers(0, 2**16),
    dead=st.sets(st.integers(0, NUM_NODES - 1), max_size=NUM_NODES - 1),
    src=st.integers(0, NUM_NODES - 1),
)
def test_destination_healthy_and_never_self(pattern, seed, dead, src):
    """Any pattern, any set of failed nodes: destinations are healthy
    non-self nodes, or None (source sends nowhere right now)."""
    gen = _generator(pattern, seed, dead - {src})
    healthy_set = set(gen.faults.healthy_nodes)
    for _ in range(20):
        dst = gen.destination(src)
        if dst is not None:
            assert dst in healthy_set
            assert dst != src


@given(
    pattern=st.sampled_from(sorted(PATTERN_PARAMS)),
    seed=st.integers(0, 2**16),
    survivors=st.sets(
        st.integers(0, NUM_NODES - 1), min_size=2, max_size=8
    ),
)
def test_healthy_update_respected(pattern, seed, survivors):
    """Once nodes fail in the generator's fault state, no pattern ever
    targets a dead node — the non-uniform-sampling regression (hotspot
    weight must move)."""
    gen = _generator(pattern, seed)
    alive = sorted(survivors)
    for node in range(NUM_NODES):
        if node not in survivors:
            gen.faults.fail_node(node)
    src = alive[0]
    for _ in range(30):
        dst = gen.destination(src)
        assert dst is None or (dst in survivors and dst != src)


# ======================================================================
# Gap-sampling exactness (the fast-forward contract)
# ======================================================================
def _flat_reference(p, seed, total_trials):
    """Success positions of the inversion-method realization over a
    flat trial index space — the ground truth arrivals()."""
    rng = random.Random(seed)
    if p <= 0.0:
        return []
    log_q = math.log(1.0 - p) if p < 1.0 else None

    def draw():
        if log_q is None:
            return 0
        return int(math.log(1.0 - rng.random()) / log_q)

    out = []
    pos = draw()
    while pos < total_trials:
        out.append(pos)
        pos += 1 + draw()
    return out


@given(
    p=st.floats(0.001, 0.9),
    seed=st.integers(0, 2**16),
    num_slots=st.integers(1, 40),
    cycles=st.integers(1, 200),
)
def test_arrivals_match_flat_realization(p, seed, num_slots, cycles):
    """Cycle-chunked arrivals == the flat Bernoulli realization."""
    proc = BernoulliInjection(p, random.Random(seed))
    got = [
        cycle * num_slots + pos
        for cycle in range(cycles)
        for pos in proc.arrivals(num_slots)
    ]
    want = [
        t for t in _flat_reference(p, seed, cycles * num_slots + 10_000)
        if t < cycles * num_slots
    ]
    assert got == want


def _schedule_with_skips(proc, num_slots, cycles, skip_rng):
    """Arrivals as (cycle, pos), taking the skip fast path whenever the
    process declares idle cycles — mimicking engine fast-forward."""
    out = []
    cycle = 0
    while cycle < cycles:
        idle = proc.idle_cycles(num_slots)
        if idle > 0:
            skip = min(idle, cycles - cycle, 1 + skip_rng.randrange(64))
            proc.skip_cycles(skip, num_slots)
            cycle += skip
            continue
        out.extend((cycle, pos) for pos in proc.arrivals(num_slots))
        cycle += 1
    return out


@pytest.mark.parametrize("kind", ["bernoulli", "bursty"])
@given(
    p=st.floats(0.001, 0.5),
    seed=st.integers(0, 2**16),
    num_slots=st.integers(1, 24),
    cycles=st.integers(1, 150),
)
def test_skip_path_equals_per_cycle_path(kind, p, seed, num_slots, cycles):
    """idle_cycles/skip_cycles must leave the process — and the shared
    RNG stream — exactly where per-cycle arrivals() calls would."""
    def build(s):
        rng = random.Random(s)
        if kind == "bernoulli":
            return BernoulliInjection(p, rng), rng
        return BurstyInjection(min(2 * p, 1.0), 0.0, 8, 24, rng), rng

    plain_proc, plain_rng = build(seed)
    plain = [
        (cycle, pos)
        for cycle in range(cycles)
        for pos in plain_proc.arrivals(num_slots)
    ]
    fast_proc, fast_rng = build(seed)
    fast = _schedule_with_skips(
        fast_proc, num_slots, cycles, random.Random(seed + 1)
    )
    assert fast == plain
    # Identical RNG stream position afterwards: the next draws agree.
    assert [plain_rng.random() for _ in range(3)] == [
        fast_rng.random() for _ in range(3)
    ]


# ======================================================================
# Offered-load accuracy
# ======================================================================
@settings(max_examples=20)
@given(
    load=st.floats(0.02, 0.4),
    seed=st.integers(0, 2**16),
    bursty=st.booleans(),
)
def test_time_average_load_matches_config(load, seed, bursty):
    """Arrivals per trial ~= offered_load / message_length, within
    5 sigma — bursty timing rescales the ON state to preserve the
    time-average (make_injection_process)."""
    cfg = SimulationConfig(
        offered_load=load,
        message_length=8,
        traffic="bursty" if bursty else "uniform",
        traffic_params={"burst_on": 16, "burst_off": 48} if bursty else {},
    )
    proc = make_injection_process(cfg, random.Random(seed))
    num_slots, cycles = 36, 3000
    count = sum(
        1 for _ in range(cycles) for _pos in proc.arrivals(num_slots)
    )
    p = load / cfg.message_length
    trials = cycles * num_slots
    sigma = math.sqrt(trials * p * (1 - p))
    # Bursty dwell clumping inflates the variance of the count by
    # roughly the mean dwell scale; widen the band accordingly.
    slack = 5 * sigma * (6 if bursty else 1)
    assert abs(count - trials * p) < slack
