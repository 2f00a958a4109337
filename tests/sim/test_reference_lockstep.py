"""Property tests for the event-driven engine core (DESIGN.md §11).

Two families, pinned with hypothesis:

* **ready-set membership** — the production engine's claim is that
  every item it leaves out of a ready set (a ``dm_quiet`` message, a
  ``parked`` header, an unattended injection queue) would have been a
  no-op under a brute-force scan.  The reference engine
  (``reference_engine.py``) *is* that scan, with the data phase
  restated from the rules, so the two engines are run in lockstep over
  hypothesis-chosen workloads — protocol, traffic pattern, recovery
  mode, VC count, buffer depth, static and dynamic faults (the state
  mutations: epoch bumps, teardowns, kill flits) — and their full
  observable state is compared after every cycle.  A message wrongly
  resting in a ready set diverges the very next cycle.  A pinned
  teardown-heavy chaos-gridlock scenario drives the same lockstep
  through deadlock-recovery victim ejection and reconfiguration epoch
  bumps — the paths where the wake and re-arm notifications are
  hardest to get right.
* **sorted-set order** — the incrementally maintained
  :class:`_SortedIntSet` (the active control/ack channel sets) must
  present exactly the ascending snapshot a fresh ``sorted()`` would,
  after any interleaving of adds and discards.

The CI hypothesis profile (tests/conftest.py) disables deadlines and
derandomizes example selection.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import ChaosController
from repro.faults.injection import DynamicFaultSchedule
from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.sim.engine import _SortedIntSet
from repro.sim.simulator import NetworkSimulator
from tests.sim.reference_engine import ReferenceSimulator


# ======================================================================
# _SortedIntSet: incremental order == fresh sorted() (launch-order pin)
# ======================================================================
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 40)),
        max_size=200,
    ),
)
@settings(max_examples=200)
def test_sorted_int_set_matches_sorted(ops):
    s = _SortedIntSet()
    model = set()
    for i, (is_add, value) in enumerate(ops):
        if is_add:
            s.add(value)
            model.add(value)
        else:
            s.discard(value)
            model.discard(value)
        assert (value in s) == (value in model)
        assert len(s) == len(model)
        assert bool(s) == bool(model)
        if i % 7 == 0:  # snapshot mid-sequence, not only at the end
            assert s.snapshot() == sorted(model)
    assert s.snapshot() == sorted(model)
    assert list(s) == sorted(model)


def test_sorted_int_set_snapshot_stable_against_mutation():
    """The control phase iterates a snapshot while rescheduling
    channels: later adds/discards must not mutate the list it walks."""
    s = _SortedIntSet()
    for v in (5, 1, 9):
        s.add(v)
    snap = s.snapshot()
    assert snap == [1, 5, 9]
    s.add(3)
    s.discard(5)
    assert snap == [1, 5, 9]
    assert s.snapshot() == [1, 3, 9]


# ======================================================================
# Ready-set membership vs the reference engine, in lockstep
# ======================================================================
def _msg_state(msg):
    return (
        msg.status.name,
        msg.header_phase.name,
        msg.header_router,
        msg.tp_mode.name,
        msg.at_source,
        msg.head_link,
        msg.tail_idx,
        tuple(msg.buffered),
        tuple(msg.released),
        msg.ejected,
        msg.wait_cycles,
        msg.consecutive_waits,
        msg.retries,
        msg.teardown,
    )


def _engine_state(engine):
    return {
        "active": {
            mid: _msg_state(m) for mid, m in engine.active.items()
        },
        "pending": sorted(engine.pending),
        "busy": sorted(engine._busy_queues),
        "delivered": engine.delivered_messages,
        "dropped": engine.dropped_messages,
        "killed": engine.killed_messages,
        "accepted": engine.accepted_messages,
        "moved": engine.data_flits_moved,
        # header_decisions is deliberately absent: the parked shortcut
        # skips pure re-decides the reference repeats, so the call
        # count differs while the outcomes match.
        "ejected": engine.flits_ejected,
        "recoveries": engine.deadlock_recoveries,
    }


#: recovery mode -> RecoveryConfig kwargs.
RECOVERY_MODES = {
    "off": {},
    "tail-ack": {"tail_ack": True},
    "tail-ack+retransmit": {"tail_ack": True, "retransmit": True},
}


@given(
    protocol=st.sampled_from(["dp", "mb", "tp", "det"]),
    load=st.sampled_from([0.05, 0.12, 0.22, 0.32]),
    seed=st.integers(0, 30),
    dynamic_faults=st.integers(0, 3),
    traffic=st.sampled_from([
        "uniform", "hotspot", "transpose", "complement", "tornado",
        "nearest", "bursty",
    ]),
    recovery=st.sampled_from(sorted(RECOVERY_MODES)),
    hardware_acks=st.booleans(),
    num_adaptive_vcs=st.sampled_from([1, 2]),
    buffer_depth=st.sampled_from([1, 2, 3]),
    static_node_faults=st.sampled_from([0, 2]),
)
@settings(max_examples=100)
def test_ready_sets_match_brute_force_lockstep(
    protocol, load, seed, dynamic_faults, traffic, recovery,
    hardware_acks, num_adaptive_vcs, buffer_depth, static_node_faults,
):
    """Cycle-for-cycle, the production engine equals the reference.

    Any ready-set membership error — a quiet message whose pipeline
    could move, a parked header whose decision changed without a wake,
    an unattended launchable queue — shows up as a state divergence on
    the first cycle the reference engine acts on the skipped item.
    """
    cfg = SimulationConfig(
        k=5, n=2, protocol=protocol,
        protocol_params={"k_unsafe": 3} if protocol == "tp" else {},
        offered_load=load, message_length=6, traffic=traffic,
        hardware_acks=hardware_acks, num_adaptive_vcs=num_adaptive_vcs,
        buffer_depth=buffer_depth,
        warmup_cycles=30, measure_cycles=90, drain_cycles=0,
        seed=seed, watchdog_cycles=60, max_header_wait=4000,
        faults=FaultConfig(
            static_node_faults=static_node_faults,
            dynamic_faults=dynamic_faults, dynamic_start=20,
        ),
        recovery=RecoveryConfig(**RECOVERY_MODES[recovery]),
    )
    production = NetworkSimulator(cfg).engine
    reference = ReferenceSimulator(cfg).engine
    for cycle in range(1, cfg.total_cycles + 30):
        production.step()
        reference.step()
        assert _engine_state(production) == _engine_state(reference), (
            f"production/reference divergence at cycle {cycle}: {cfg}"
        )
    # That the skip paths genuinely engage (so this comparison proves
    # membership, not vacuity) is pinned separately by
    # test_determinism.test_event_engine_actually_parks_and_quiets —
    # an uncongested low-load example here may legitimately never park.


# ======================================================================
# A fault-epoch move is a wake condition of its own
# ======================================================================
def test_fault_epoch_wakes_parked_header():
    """A header parked on a busy safe escape channel must re-decide
    when a dynamic fault nearby turns that channel unsafe (TP stops
    blocking on it and takes an unsafe channel or starts a detour): no
    virtual channel is released at its router and no retry timer is
    armed, so only the fault-epoch wake condition can see it.  The
    random lockstep above rarely builds this; the pinned run does, at
    cycle 78 (message 36 enters detour mode)."""
    cfg = SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=0.2, message_length=12,
        warmup_cycles=30, measure_cycles=200, drain_cycles=0, seed=7,
        faults=FaultConfig(dynamic_faults=3, dynamic_start=40),
    )
    production = NetworkSimulator(cfg).engine
    reference = ReferenceSimulator(cfg).engine
    decide_headers = production._phase_routing_decisions
    epoch_wakes = []

    def spy():
        # Parked headers for which neither the release version nor the
        # retry timer has moved, only the fault epoch.
        woken = [
            m for m in production.pending.values()
            if m.parked and production.cycle < m.wake_at
            and m.park_ver == production._node_rel_ver[m.park_node]
            and m.park_epoch != production.faults.epoch
        ]
        decide_headers()
        epoch_wakes.extend(m.msg_id for m in woken if not m.parked)

    production._phase_routing_decisions = spy
    for cycle in range(1, 101):
        production.step()
        reference.step()
        assert _engine_state(production) == _engine_state(reference), (
            f"production/reference divergence at cycle {cycle}"
        )
    assert epoch_wakes, (
        "no parked header changed its decision on a fault-epoch move alone"
    )


# ======================================================================
# Production vs reference under maximum lifecycle pressure
# ======================================================================
def _gridlock_reconfig_cfg() -> SimulationConfig:
    """Deadlock-prone gridlock with chaos faults and reconfiguration.

    Dimension-order routing without the dateline gridlocks at this
    load, so the watchdog fires and deadlock recovery ejects victims;
    chaos bursts tear paths down mid-flight; the recovery pressure
    then pushes the reconfiguration controller through its
    drain/commit cycle, bumping restriction epochs.  Every ready-set
    lifecycle edge — launch, teardown, victim ejection, a
    reconfig-frozen header re-deciding — runs in one scenario.
    """
    return SimulationConfig(
        k=6, n=2, protocol="det", protocol_params={"dateline": False},
        offered_load=0.30, message_length=16,
        warmup_cycles=100, measure_cycles=800, drain_cycles=0,
        seed=3, watchdog_cycles=120, max_header_wait=6000,
        resilience=ResilienceConfig(
            reconfig=True, reconfig_check_every=16,
            reconfig_window=256, reconfig_threshold=2,
            reconfig_drain_timeout=120, reconfig_cooldown=300,
            reconfig_unsafe_radius=1,
        ),
    )


def test_event_brute_force_lockstep_chaos_gridlock():
    """Production and reference stay state-identical through victim
    ejection, chaos teardown bursts, and reconfiguration epoch bumps."""
    sims = []
    for simulator_class in (NetworkSimulator, ReferenceSimulator):
        sim = simulator_class(_gridlock_reconfig_cfg())
        sim.engine.dynamic_schedule = DynamicFaultSchedule()
        controller = ChaosController(
            sim.engine.dynamic_schedule,
            random.Random(77),
            burst_cycles=[300, 500],
            burst_size=2,
            node_fault_fraction=0.5,
        )
        sims.append((sim, controller))
    (prod, prod_chaos), (ref, ref_chaos) = sims
    total = prod.config.total_cycles
    for cycle in range(1, total + 1):
        for sim, chaos in sims:
            sim.engine.step()
            chaos(sim.engine)
            sim.reconfig(sim.engine)
        assert _engine_state(prod.engine) == _engine_state(ref.engine), (
            f"production/reference divergence at cycle {cycle}"
        )
    # Drain phase: traffic off, circular waits stop resolving through
    # fresh aborts, the watchdog expires, and deadlock recovery ejects
    # victims.
    for sim, _ in sims:
        sim.reconfig.finalize(sim.engine)
        sim.engine.traffic_enabled = False
    for cycle in range(4000):
        if not prod.engine.active and not any(prod.engine.queues):
            break
        for sim, _ in sims:
            sim.engine.step()
        assert _engine_state(prod.engine) == _engine_state(ref.engine), (
            f"production/reference divergence during drain cycle {cycle}"
        )
    # The scenario must actually exercise the hard paths — otherwise
    # the lockstep proves nothing about them.
    assert prod.engine.deadlock_recoveries > 0, (
        "gridlock never triggered deadlock-recovery victim ejection"
    )
    assert prod_chaos.faults_injected > 0, (
        "chaos bursts never landed a fault"
    )
    assert prod.engine.reconfigurations > 0, (
        "recovery pressure never committed a reconfiguration"
    )
    assert prod.engine.teardown_counts.get("fault", 0) > 0, (
        "chaos faults never tore a path down"
    )
    assert prod_chaos.faults_injected == ref_chaos.faults_injected
    assert prod.engine.reconfigurations == ref.engine.reconfigurations
    assert not prod.engine.active and not ref.engine.active
