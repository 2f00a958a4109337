"""Property tests for the event-driven engine core (DESIGN.md §11).

Three families:

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
* **steady-state fast-forward** — ``Engine.run`` jumps over cycles in
  which nothing is in flight but isolated, established worms or one
  lone header setting up (DESIGN.md §8), advancing them in closed form.
  ``step()`` never enters that jump, so production ``run(c)`` is
  compared with the reference's (which steps all ``c`` cycles) over
  hypothesis-drawn chunk lengths at light load, full state after every
  chunk, and one named test pins each edge of the predicates and of the
  window accounting.
* **control-plane order** — :class:`ControlPlane` (the control and ack
  queues, kept only on busy channels) must list exactly the channels
  with a flit queued, in the ascending order a fresh ``sorted()`` would
  give, after any interleaving of pushes, pops and drains.

The CI hypothesis profile (tests/conftest.py) disables deadlines and
derandomizes example selection.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.chaos import ChaosController
from repro.faults.injection import DynamicFaultSchedule, FaultEvent
from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.network.link import ControlPlane
from repro.sim.message import HeaderPhase
from repro.sim.simulator import NetworkSimulator
from tests.sim.reference_engine import ReferenceSimulator
from tests.sim.test_determinism import (
    DeclaredHook,
    executed_steps,
    lone_message_cfg,
)


# ======================================================================
# ControlPlane: busy channels == fresh sorted() (transfer-order pin)
# ======================================================================
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["push", "pop", "drain"]),
                  st.integers(0, 40)),
        max_size=200,
    ),
)
@settings(max_examples=200)
def test_control_plane_channels_match_sorted(ops):
    plane = ControlPlane()
    model = {}
    for i, (op, ch) in enumerate(ops):
        if op == "push":
            plane.push(ch, i)
            model.setdefault(ch, []).append(i)
        elif op == "drain":
            assert plane.drain(ch) == model.pop(ch, [])
        elif ch in model:
            assert plane.pop(ch) == model[ch].pop(0)
            if not model[ch]:
                del model[ch]
        assert plane.peek(ch) == (model[ch][0] if ch in model else None)
        assert len(plane) == len(model)
        assert bool(plane) == bool(model)
        if i % 7 == 0:  # snapshot mid-sequence, not only at the end
            assert plane.channels() == sorted(model)
    assert plane.channels() == sorted(model)
    assert list(plane) == [t for ch in sorted(model) for t in model[ch]]


def test_control_plane_channels_stable_against_mutation():
    """The control phase iterates a snapshot while flits are pushed and
    popped: later changes must not mutate the list it walks."""
    plane = ControlPlane()
    for ch in (5, 1, 9):
        plane.push(ch, "token")
    snap = plane.channels()
    assert snap == [1, 5, 9]
    plane.push(3, "token")
    plane.pop(5)
    assert snap == [1, 5, 9]
    assert plane.channels() == [1, 3, 9]


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
        msg.injected_cycle,
        msg.delivered_cycle,
    )


def _engine_state(engine):
    return {
        "cycle": engine.cycle,
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
        "measured": engine.measured_delivered_flits,
        "control": engine.control_flits_sent,
        "recoveries": engine.deadlock_recoveries,
        "idle_streak": engine._idle_streak,
        "vcs": [
            (vc.owner, vc.grants)
            for ch in range(engine.topology.num_channels)
            for vc in engine.channels.vcs(ch)
        ],
        "eject_last": list(engine._eject_last),
        "release_versions": list(engine._node_rel_ver),
        "resident": list(engine._ch_resident),
        "records": [
            (r.msg_id, r.status, r.created, r.injected, r.delivered)
            for r in engine.records
        ],
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
    static_node_faults=st.sampled_from([0, 2]),
)
@settings(max_examples=100)
def test_ready_sets_match_brute_force_lockstep(
    protocol, load, seed, dynamic_faults, traffic, recovery,
    hardware_acks, static_node_faults,
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
        hardware_acks=hardware_acks,
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
# Steady-state fast-forward: run() in chunks vs the reference
# ======================================================================
#: protocol id -> (protocol, protocol_params).
CHUNKED_PROTOCOLS = {
    "tp-k0": ("tp", {"k_unsafe": 0}),
    "tp-k3": ("tp", {"k_unsafe": 3}),
    "dp": ("dp", {}),
    "mb": ("mb", {}),
    "det": ("det", {}),
}


def _headers_in_setup(engine):
    """Ids of the messages whose header is PENDING at a router."""
    return {
        mid for mid, msg in engine.active.items()
        if msg.header_phase is HeaderPhase.PENDING
    }


def test_chunked_run_matches_reference():
    """``production.run(c)`` equals ``reference.run(c)`` chunk by chunk.

    ``step()`` never enters ``run()``'s jump, and ``RunResult`` holds
    neither ``vc.grants`` nor ``_eject_last``: only a full-state
    comparison around ``run()`` sees a slip in the closed-form worm
    advance or header set-up.  Light loads keep worms isolated; the
    warm-up and the end of the window land mid-stream, and chunk ends
    cut jumps short at arbitrary cycles.  The advance draws no random
    number, so the RNG states must agree too.
    """
    worm_jumps = []
    setup_jumps = []

    @given(
        protocol=st.sampled_from(sorted(CHUNKED_PROTOCOLS)),
        k=st.sampled_from([4, 5, 6]),
        load=st.sampled_from([0.002, 0.005, 0.01, 0.02, 0.04, 0.08]),
        message_length=st.sampled_from([6, 16, 40]),
        seed=st.integers(0, 30),
        traffic=st.sampled_from([
            "uniform", "hotspot", "transpose", "complement", "tornado",
            "bursty",
        ]),
        recovery=st.sampled_from(sorted(RECOVERY_MODES)),
        hardware_acks=st.booleans(),
        static_node_faults=st.sampled_from([0, 2]),
        dynamic_faults=st.integers(0, 2),
        warmup=st.integers(20, 150),
        # (length, past): a ``past`` ends the chunk in the past-th cycle
        # counted from the next injection arrival (1: the arrival's own
        # cycle, which launches a header) or, with a header already
        # setting up, after ``past`` cycles — so chunk ends land inside
        # header set-ups, which last only a few cycles at this size.
        chunks=st.lists(
            st.tuples(st.integers(1, 80), st.none() | st.integers(1, 3)),
            min_size=5, max_size=10,
        ),
    )
    # Always run: the second chunk starts one cycle after a launch and
    # ends one hop into the set-up (the vacuity guard below).
    @example(
        protocol="tp-k0", k=6, load=0.01, message_length=16, seed=1,
        traffic="uniform", recovery="off", hardware_acks=False,
        static_node_faults=0, dynamic_faults=0, warmup=20,
        chunks=[(80, 1), (80, 1), (80, None), (80, 1), (80, 1)],
    )
    @settings(max_examples=100)
    def check(
        protocol, k, load, message_length, seed, traffic, recovery,
        hardware_acks, static_node_faults, dynamic_faults, warmup, chunks,
    ):
        name, params = CHUNKED_PROTOCOLS[protocol]
        cfg = SimulationConfig(
            k=k, n=2, protocol=name, protocol_params=params,
            offered_load=load, message_length=message_length,
            traffic=traffic, hardware_acks=hardware_acks,
            warmup_cycles=warmup, measure_cycles=100, drain_cycles=0,
            seed=seed, watchdog_cycles=60, max_header_wait=4000,
            faults=FaultConfig(
                static_node_faults=static_node_faults,
                dynamic_faults=dynamic_faults, dynamic_start=20,
            ),
            recovery=RecoveryConfig(**RECOVERY_MODES[recovery]),
        )
        production = NetworkSimulator(cfg).engine
        reference = ReferenceSimulator(cfg).engine
        for chunk, past in chunks:
            skipped = production.fast_forwarded_cycles
            in_flight = set(production.active)
            in_setup = _headers_in_setup(production)
            if past is not None:
                if in_setup:
                    chunk = past
                else:
                    # Whole cycles without an arrival.  A bursty dwell it
                    # settles early draws at the same stream position as
                    # the next step would — ``run()``'s jump relies on
                    # that too, and the RNG states are compared below.
                    idle = production.injection.idle_cycles(
                        len(production.traffic.healthy_nodes)
                    )
                    if idle + past <= 80:
                        chunk = idle + past
            production.run(chunk)
            reference.run(chunk)
            assert _engine_state(production) == _engine_state(reference), (
                f"divergence in the {chunk}-cycle chunk ending at cycle "
                f"{production.cycle}: {cfg}"
            )
            assert production.rng.getstate() == reference.rng.getstate()
            # A message in flight at both ends kept the network busy
            # throughout, so any skipped cycle was a worm jump.
            if (
                production.fast_forwarded_cycles > skipped
                and in_flight & set(production.active)
            ):
                worm_jumps.append(production.cycle)
            # A header setting up at both ends: a set-up jump ran.
            if (
                production.fast_forwarded_cycles > skipped
                and in_setup & _headers_in_setup(production)
            ):
                setup_jumps.append(production.cycle)

    check()
    assert worm_jumps, "no chunk ever fast-forwarded a worm in flight"
    assert setup_jumps, "no chunk ever jumped a header in set-up"


# ----------------------------------------------------------------------
# Named edges of the steady predicate: a lone 32-flit message over 8
# hops of an idle 16-ary 2-cube (TP: header at the destination in cycle
# 8, flit i ejected in cycle 8 + i, delivered in cycle 40 = l + L).
# The first hop is stepped (``inject`` arms the launch attention set);
# one jump then covers hops 2-8, the first ejection (cycle 9) and the
# feed (cycles 10-32).
# ----------------------------------------------------------------------
def _node(x: int, y: int) -> int:
    return x + 16 * y


def _engine_pair(cfg, *injections):
    """Production and reference engines, same hand-injected messages."""
    engines = []
    for simulator_class in (NetworkSimulator, ReferenceSimulator):
        engine = simulator_class(cfg).engine
        for src, dst in injections:
            engine.inject(src, dst)
        engines.append(engine)
    return engines


def _run_both(production, reference, cycles, on_cycle=None):
    production.run(cycles, on_cycle=on_cycle)
    reference.run(cycles, on_cycle=on_cycle)
    assert _engine_state(production) == _engine_state(reference), (
        f"production/reference divergence at cycle {production.cycle}"
    )


@pytest.mark.parametrize(
    "window,counted",
    [
        # The jump covers cycles 2-32.
        ({"warmup_cycles": 20, "measure_cycles": 180}, 20),
        ({"warmup_cycles": 0, "measure_cycles": 25}, 17),
        # The edge on the first-ejection cycle (9), which the set-up
        # jump folds in: inside (warmup, total] or just outside it.
        ({"warmup_cycles": 8, "measure_cycles": 192}, 32),
        ({"warmup_cycles": 9, "measure_cycles": 191}, 31),
        ({"warmup_cycles": 0, "measure_cycles": 9}, 1),
        ({"warmup_cycles": 0, "measure_cycles": 8}, 0),
    ],
    ids=["warmup", "total", "first-ejection-after-warmup",
         "first-ejection-in-warmup", "first-ejection-at-total",
         "first-ejection-after-total"],
)
def test_jump_straddles_measurement_window_edge(window, counted):
    """Only the ejections inside ``(warmup, total]`` are measured when
    one jump crosses an edge of the window."""
    production, reference = _engine_pair(
        lone_message_cfg(**window), (_node(0, 0), _node(4, 4))
    )
    _run_both(production, reference, 200)
    assert production.measured_delivered_flits == counted
    assert executed_steps(production) == 3  # no jump was cut short


def test_dynamic_fault_on_streaming_worms_own_channel():
    """The jump stops the cycle before the fault; the teardown it then
    triggers is the reference's."""
    probe = NetworkSimulator(lone_message_cfg()).engine
    msg = probe.inject(_node(0, 0), _node(4, 4))
    probe.run(9)
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(4, 4))
    )
    for engine in (production, reference):
        engine.dynamic_schedule = DynamicFaultSchedule([
            FaultEvent(cycle=20, kind="link", target=msg.path[3].channel_id)
        ])
    _run_both(production, reference, 19)
    assert production.fast_forwarded_cycles == 18  # cycles 2-19
    assert not production.active[0].teardown
    _run_both(production, reference, 1)
    assert production.teardown_counts == {"fault": 1}
    _run_both(production, reference, 180)
    assert not production.active and production.channels.all_free()


def _assert_never_jumped_together(production, reference):
    """Step both engines while two messages are active: nothing may be
    skipped, and both must have been streaming at some point."""
    both_streaming = False
    while len(production.active) == 2:
        both_streaming = both_streaming or all(
            m.ejected for m in production.active.values()
        )
        _run_both(production, reference, 1)
    assert both_streaming
    assert production.fast_forwarded_cycles == 0
    _run_both(production, reference, 200 - production.cycle)
    assert production.fast_forwarded_cycles > 0
    assert production.delivered_messages == 2


def test_two_worms_to_one_destination_are_never_jumped():
    """They share the ejection port, so neither advances every cycle."""
    production, reference = _engine_pair(
        lone_message_cfg(),
        (_node(0, 0), _node(4, 4)), (_node(8, 8), _node(4, 4)),
    )
    _assert_never_jumped_together(production, reference)


def test_two_worms_on_one_physical_channel_are_never_jumped():
    """Different VCs of the same links: they alternate on the wires."""
    production, reference = _engine_pair(
        lone_message_cfg(),
        (_node(0, 0), _node(6, 0)), (_node(1, 0), _node(7, 0)),
    )
    production.run(3)
    reference.run(3)
    assert max(production._ch_resident) == 2
    _assert_never_jumped_together(production, reference)


def test_hooked_run_jumps_only_the_empty_network():
    """``next_event_cycle`` speaks for quiescent networks only: with a
    worm in flight the hook sees every cycle."""
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(4, 4))
    )
    _run_both(production, reference, 200, on_cycle=DeclaredHook())
    assert production.records[0].delivered == 40
    assert executed_steps(production) == 40
    assert production.fast_forwarded_cycles == 160


def test_tail_ack_holds_links_through_the_drain_jump():
    """Tail-ack mode: the tail crosses links in the jump without
    releasing them; the TAIL_ACK walk back is stepped."""
    production, reference = _engine_pair(
        lone_message_cfg(recovery=RecoveryConfig(tail_ack=True)),
        (_node(0, 0), _node(4, 4)),
    )
    msg = production.active[0]
    _run_both(production, reference, 39)  # the drain jump ends here
    assert production.fast_forwarded_cycles == 31 + 6
    assert msg.tail_idx == 6 and not any(msg.released)
    assert all(vc.owner == msg.msg_id for vc in msg.path)
    _run_both(production, reference, 161)
    assert executed_steps(production) == 3 + 8  # one step per ack hop
    assert production.channels.all_free()


def test_audit_ticks_bound_the_jump_and_find_it_clean():
    """Every audit tick is an executed cycle, and the auditor (flit
    conservation, released[p] <=> tail passed p) is clean right after a
    feed jump (cycle 17), a drain jump (cycle 36) and at the end."""
    cfg = lone_message_cfg(
        resilience=ResilienceConfig(audit_invariants=True, audit_every=5)
    )
    production, reference = _engine_pair(cfg, (_node(0, 0), _node(4, 4)))
    for stop in (17, 36, 200):
        skipped = production.fast_forwarded_cycles
        _run_both(production, reference, stop - production.cycle)
        assert production.fast_forwarded_cycles > skipped
        assert production.auditor.audit(production) == []
    assert production.auditor.checks_run == 200 // 5 + 3
    assert reference.auditor.checks_run == 200 // 5


# ----------------------------------------------------------------------
# Named edges of the set-up jump (Engine._advance_setup): where the lone
# header above stops being jumped, and the reference agrees.
# ----------------------------------------------------------------------
def test_setup_jump_cut_by_injection_arrival():
    """At this seed the first injection arrives in cycle 5: the set-up
    jump ends at cycle 4, cycle 5 is stepped and launches the newcomer,
    and with two messages active nothing more is jumped."""
    production, reference = _engine_pair(
        lone_message_cfg(offered_load=0.01, seed=7),
        (_node(0, 0), _node(4, 4)),
    )
    _run_both(production, reference, 1)
    _run_both(production, reference, 8)
    assert production.fast_forwarded_cycles == 3  # hops 2-4
    assert production.offered_messages == 1
    assert len(production.active) == 2
    _run_both(production, reference, 191)
    assert production.rng.getstate() == reference.rng.getstate()
    assert production.delivered_messages >= 2


def test_setup_jump_stops_before_fault_on_next_channel():
    """A link fault armed for cycle 5 on the channel the header would
    reserve in cycle 5: the jump ends at cycle 4 and the fault lands in
    the stepped cycle 5, where the header — its one profitable channel
    at (4, 0) gone — starts a detour, which is stepped."""
    probe = NetworkSimulator(lone_message_cfg()).engine
    msg = probe.inject(_node(0, 0), _node(4, 4))
    probe.run(9)
    target = msg.path[4].channel_id
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(4, 4))
    )
    for engine in (production, reference):
        engine.dynamic_schedule = DynamicFaultSchedule([
            FaultEvent(cycle=5, kind="link", target=target)
        ])
    _run_both(production, reference, 1)
    _run_both(production, reference, 5)
    assert production.fast_forwarded_cycles == 3  # hops 2-4
    head = production.active[0]
    assert _headers_in_setup(production) == {0} and len(head.path) == 6
    assert production.faults.channel_faulty[target]
    assert head.path[4].channel_id != target and head.needs_path_ack
    _run_both(production, reference, 194)
    assert production.delivered_messages == 1


def test_setup_jump_cut_by_audit_tick():
    """Audit ticks at cycles 4 and 8 are executed cycles: the set-up
    jumps are cycles 2-3 and 5-7, and the auditor is clean at each
    tick."""
    cfg = lone_message_cfg(
        resilience=ResilienceConfig(audit_invariants=True, audit_every=4)
    )
    production, reference = _engine_pair(cfg, (_node(0, 0), _node(4, 4)))
    _run_both(production, reference, 1)
    _run_both(production, reference, 7)
    assert production.fast_forwarded_cycles == 2 + 3
    assert production.auditor.checks_run == reference.auditor.checks_run == 2
    assert production.active[0].header_phase is HeaderPhase.DELIVERED
    _run_both(production, reference, 192)
    assert production.auditor.checks_run == reference.auditor.checks_run
    assert production.delivered_messages == 1


@pytest.mark.parametrize(
    "k_unsafe,steps",
    [
        # Cycles 1 and 4, then the source running dry and the tail.
        (0, 2 + 2),
        # Cycles 1 and 4-10: the last hop, the path acknowledgment's
        # walk back and the data gated behind it.
        (3, 1 + 7 + 2),
    ],
)
def test_setup_jump_stops_at_unsafe_channel(k_unsafe, steps):
    """Node (4, 1) failed makes (3, 0) -> (4, 0) unsafe, the only
    profitable hop of (0, 0) -> (5, 0): the header's fourth hop is
    TP's SR switch (step 3 of the DP phase), so the jump ends before it
    and the switch is stepped.  With K = 0 the last hop, the first
    ejection and the feed are one jump again; with K = 3 the scouting
    acknowledgments keep the rest of the set-up stepped."""
    cfg = lone_message_cfg(protocol_params={"k_unsafe": k_unsafe})
    production, reference = _engine_pair(cfg)
    for engine in (production, reference):
        engine.faults.fail_node(_node(4, 1))
        engine.inject(_node(0, 0), _node(5, 0))
    msg = production.active[0]
    _run_both(production, reference, 1)
    _run_both(production, reference, 2)
    assert production.fast_forwarded_cycles == 2  # hops 2-3
    assert not msg.header.sr
    _run_both(production, reference, 1)
    assert msg.header.sr
    assert production.faults.channel_unsafe[msg.path[3].channel_id]
    _run_both(production, reference, 196)
    assert production.delivered_messages == 1
    assert executed_steps(production) == steps


def test_setup_jump_stops_before_source_runs_dry():
    """A 3-flit message over 8 hops: the jump covers hops 2-3, cycle 4
    (its last flit leaves the source) is stepped, and so is the rest of
    the set-up, the tail now in the network, up to the first ejection
    (cycle 9); one drain cycle (10) is jumped before the tail ejects."""
    production, reference = _engine_pair(lone_message_cfg())
    for engine in (production, reference):
        engine.inject(_node(0, 0), _node(4, 4), length=3)
    msg = production.active[0]
    _run_both(production, reference, 1)
    _run_both(production, reference, 3)
    assert production.fast_forwarded_cycles == 2
    assert msg.at_source == 0 and _headers_in_setup(production) == {0}
    _run_both(production, reference, 196)
    assert production.fast_forwarded_cycles == 2 + 1 + 189
    assert production.records[0].delivered == 8 + 3


def test_second_launch_during_setup_is_never_jumped():
    """A second message launched while the first header sets up: two
    headers decide each cycle, and nothing is jumped until both are
    delivered."""
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(4, 4))
    )
    _run_both(production, reference, 4)
    assert production.fast_forwarded_cycles == 3
    for engine in (production, reference):
        engine.inject(_node(8, 0), _node(8, 6))
    while _headers_in_setup(production):
        _run_both(production, reference, 1)
    assert production.fast_forwarded_cycles == 3
    _run_both(production, reference, 200 - production.cycle)
    assert production.delivered_messages == 2


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
