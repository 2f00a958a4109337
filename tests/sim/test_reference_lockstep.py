"""Property tests for the event-driven engine core (DESIGN.md §11).

Three families:

* **ready-set membership** — the production engine's claim is that
  every item it leaves out of a ready set (a ``parked`` header, an
  unattended injection queue) would have been a no-op under a
  brute-force scan.  The reference engine
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
  which no two messages interact (DESIGN.md §8): isolated worms, one
  header setting up or one path acknowledgment walking beside them, and
  each message's own events, all advanced in closed form, with or
  without an ``on_cycle`` hook.  ``step()`` never enters that jump, so
  production ``run(c)`` is compared with the reference's (which steps
  all ``c`` cycles) over hypothesis-drawn chunk lengths at light load,
  full state after every chunk, and one named test pins each edge of
  the predicates and of the window accounting.
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
from repro.sim import fast_forward
from repro.sim.engine import Engine
from repro.sim.message import HeaderPhase
from repro.sim.simulator import NetworkSimulator
from tests.conftest import delivered_count
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
        "queues": {
            node: [m.msg_id for m in queue]
            for node, queue in enumerate(engine.queues) if queue
        },
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

    Any ready-set membership error — a parked header whose decision
    changed without a wake, an unattended launchable queue — shows up as a state divergence on
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
    # test_determinism.test_event_engine_actually_parks_and_attends —
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


#: Every kind of work the jump does in closed form.
JUMP_KINDS = (
    "arrival", "source-dry", "tail-ejection", "setup-beside-worm",
    "pcs-probe", "path-ack-walk", "front-fill",
)


class JumpSpy:
    """Counts, per kind, the closed-form work ``run()``'s jump did.

    Spies on ``repro.sim.fast_forward``: a folded arrival is a traffic
    phase run inside a jump segment that offered a message, a folded
    tail ejection an ``Engine._drained`` call inside one, a source-dry
    or front-fill shift an ``_advance_worm`` call that ran the source
    dry or moved a delivered header's first flit toward the
    destination, and the set-up kinds the header hops and walk
    positions applied.  The reference engine never jumps, so only the
    production engine's calls count.
    """

    def __init__(self, monkeypatch):
        self.fired = dict.fromkeys(JUMP_KINDS, 0)
        self._depth = 0
        segment = fast_forward._segment
        reserve_hops = fast_forward._reserve_hops
        walk = fast_forward._walk_path_ack
        advance = fast_forward._advance_worm
        drained = Engine._drained
        traffic = Engine._phase_traffic

        def spy_segment(engine, *args):
            self._depth += 1
            try:
                return segment(engine, *args)
            finally:
                self._depth -= 1

        def spy_reserve_hops(engine, lead, cycles, worms):
            hops = reserve_hops(engine, lead, cycles, worms)
            if hops and engine._pcs:
                self.fired["pcs-probe"] += 1
            elif hops and worms:
                self.fired["setup-beside-worm"] += 1
            return hops

        def spy_walk(engine, lead, cycles):
            walked = walk(engine, lead, cycles)
            self.fired["path-ack-walk"] += bool(walked)
            return walked

        def spy_advance(engine, msg, start, hops):
            feeding = msg.at_source > 0
            filling = (msg.header_phase is HeaderPhase.DELIVERED
                       and msg.head_link < len(msg.path) - 1)
            advance(engine, msg, start, hops)
            self.fired["source-dry"] += feeding and not msg.at_source
            self.fired["front-fill"] += filling

        def spy_drained(engine, msg):
            self.fired["tail-ejection"] += self._depth > 0
            drained(engine, msg)

        def spy_traffic(engine):
            offered = engine.offered_messages
            traffic(engine)
            self.fired["arrival"] += (
                self._depth > 0 and engine.offered_messages > offered
            )

        monkeypatch.setattr(fast_forward, "_segment", spy_segment)
        monkeypatch.setattr(fast_forward, "_reserve_hops", spy_reserve_hops)
        monkeypatch.setattr(fast_forward, "_walk_path_ack", spy_walk)
        monkeypatch.setattr(fast_forward, "_advance_worm", spy_advance)
        monkeypatch.setattr(Engine, "_drained", spy_drained)
        monkeypatch.setattr(Engine, "_phase_traffic", spy_traffic)


class EveryNth:
    """An ``on_cycle`` hook that fires every ``every`` cycles, recording
    the cycle and the active messages, and declares its next firing."""

    def __init__(self, every):
        self.every = every
        self.seen = []

    def next_event_cycle(self, engine):
        return (engine.cycle // self.every + 1) * self.every

    def __call__(self, engine):
        if engine.cycle % self.every == 0:
            self.seen.append((engine.cycle, sorted(engine.active)))


def test_chunked_run_matches_reference(monkeypatch):
    """``production.run(c)`` equals ``reference.run(c)`` chunk by chunk.

    ``step()`` never enters ``run()``'s jump, and ``RunResult`` holds
    neither ``vc.grants`` nor ``_eject_last``: only a full-state
    comparison around ``run()`` sees a slip in the closed-form worm
    advance, header set-up, path acknowledgment walk or folded event.
    Light loads keep worms isolated; the warm-up and the end of the
    window land mid-stream, and chunk ends cut jumps short at arbitrary
    cycles.  The advance draws no random number, so the RNG states must
    agree too — and every kind of jump must have fired over the
    examples, with and without a hook, or the comparison proved nothing
    about it.  A hook must see the same cycles and state on both.
    """
    spy = JumpSpy(monkeypatch)
    hooked_fired = dict.fromkeys(JUMP_KINDS, 0)
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
        hook_every=st.none() | st.integers(2, 40),
    )
    # Always run: the second chunk starts one cycle after a launch and
    # ends one hop into the set-up (the vacuity guard below).
    @example(
        protocol="tp-k0", k=6, load=0.01, message_length=16, seed=1,
        traffic="uniform", recovery="off", hardware_acks=False,
        static_node_faults=0, dynamic_faults=0, warmup=20,
        chunks=[(80, 1), (80, 1), (80, None), (80, 1), (80, 1)],
        hook_every=None,
    )
    @settings(max_examples=100)
    def check(
        protocol, k, load, message_length, seed, traffic, recovery,
        hardware_acks, static_node_faults, dynamic_faults, warmup, chunks,
        hook_every,
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
        hooks = (None, None)
        if hook_every is not None:
            hooks = (EveryNth(hook_every), EveryNth(hook_every))
        fired = dict(spy.fired)
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
            production.run(chunk, on_cycle=hooks[0])
            reference.run(chunk, on_cycle=hooks[1])
            assert _engine_state(production) == _engine_state(reference), (
                f"divergence in the {chunk}-cycle chunk ending at cycle "
                f"{production.cycle}: {cfg}"
            )
            assert production.rng.getstate() == reference.rng.getstate()
            if hook_every is not None:
                assert hooks[0].seen == hooks[1].seen
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
        if hook_every is not None:
            for kind, count in spy.fired.items():
                hooked_fired[kind] += count - fired[kind]

    check()
    assert worm_jumps, "no chunk ever fast-forwarded a worm in flight"
    assert setup_jumps, "no chunk ever jumped a header in set-up"
    assert all(spy.fired.values()), f"jump kinds never fired: {spy.fired}"
    assert all(hooked_fired.values()), (
        f"jump kinds never fired under a hook: {hooked_fired}"
    )


# ----------------------------------------------------------------------
# Named edges of the steady predicate: a lone 32-flit message over 8
# hops of an idle 16-ary 2-cube (TP: header at the destination in cycle
# 8, flit i ejected in cycle 8 + i, delivered in cycle 40 = l + L).
# The first hop is stepped (``inject`` arms the launch attention set);
# one jump then covers hops 2-8, the first ejection (cycle 9), the feed,
# the source running dry (cycle 33), the drain, the tail's ejection
# (cycle 40) and the empty network after it.
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
        # The jump covers cycles 2-200.
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
    assert executed_steps(production) == 1  # no jump was cut short


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
    assert delivered_count(production) == 2


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


def test_hooked_run_jumps_like_an_unhooked_one():
    """``next_event_cycle`` holds whatever the network holds: with a
    worm in flight a hook that never acts costs no step."""
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(4, 4))
    )
    _run_both(production, reference, 200, on_cycle=DeclaredHook())
    assert production.records[0].delivered == 40
    assert executed_steps(production) == 1
    assert production.fast_forwarded_cycles == 199


def test_tail_ack_holds_links_through_the_drain_jump():
    """Tail-ack mode: the tail crosses links in the jump without
    releasing them, its ejection sends the TAIL_ACK (the jump ends
    there) and the walk back is stepped."""
    production, reference = _engine_pair(
        lone_message_cfg(recovery=RecoveryConfig(tail_ack=True)),
        (_node(0, 0), _node(4, 4)),
    )
    msg = production.active[0]
    _run_both(production, reference, 39)
    assert production.fast_forwarded_cycles == 38  # cycles 2-39
    assert msg.tail_idx == 6 and not any(msg.released)
    assert all(vc.owner == msg.msg_id for vc in msg.path)
    _run_both(production, reference, 1)  # the tail ejects, jumped
    assert production.fast_forwarded_cycles == 39
    assert msg.delivered_cycle == 40 and len(production.control_out) == 1
    _run_both(production, reference, 160)
    assert executed_steps(production) == 1 + 8  # one step per ack hop
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
# Named edges of the set-up jump (fast_forward._reserve_hops): where the
# lone header above stops being jumped, and the reference agrees.
# ----------------------------------------------------------------------
def test_setup_jump_cut_by_injection_arrival():
    """At this seed the first injection arrives in cycle 5: the jump
    folds it in and launches the newcomer, and with two headers setting
    up it ends there; cycles 6-8 are stepped until the first header is
    delivered, and the newcomer's set-up is jumped beside that worm."""
    production, reference = _engine_pair(
        lone_message_cfg(offered_load=0.01, seed=7),
        (_node(0, 0), _node(4, 4)),
    )
    _run_both(production, reference, 1)
    _run_both(production, reference, 4)
    assert production.fast_forwarded_cycles == 4  # hops 2-5, arrival
    assert production.offered_messages == 1
    assert _headers_in_setup(production) == {0, 1}
    _run_both(production, reference, 3)
    assert production.fast_forwarded_cycles == 4  # cycles 6-8 stepped
    _run_both(production, reference, 1)
    assert production.fast_forwarded_cycles == 5
    assert _headers_in_setup(production) == {1}
    _run_both(production, reference, 191)
    assert production.rng.getstate() == reference.rng.getstate()
    assert delivered_count(production) >= 2


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
    assert delivered_count(production) == 1


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
    assert delivered_count(production) == 1


@pytest.mark.parametrize(
    "k_unsafe,steps",
    [
        # Cycles 1 and 4.
        (0, 2),
        # Cycles 1 and 4-10: the last hop, the scouting acknowledgments
        # and the path acknowledgment's walk back, with the data gated
        # behind them.
        (3, 1 + 7),
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
    assert delivered_count(production) == 1
    assert executed_steps(production) == steps


def test_setup_jump_folds_the_source_running_dry():
    """A 3-flit message over 8 hops: its last flit leaves the source in
    cycle 4, mid set-up.  The jump folds that cycle in (link 0 released,
    the source queue attended) and sets up the rest with the tail in the
    network: hops 2-8, the drain and the tail's ejection in cycle 11 are
    all one jump."""
    production, reference = _engine_pair(lone_message_cfg())
    for engine in (production, reference):
        engine.inject(_node(0, 0), _node(4, 4), length=3)
    msg = production.active[0]
    _run_both(production, reference, 1)
    _run_both(production, reference, 3)
    assert production.fast_forwarded_cycles == 3
    assert msg.at_source == 0 and _headers_in_setup(production) == {0}
    assert msg.released[0] and not any(production.queues)
    _run_both(production, reference, 196)
    assert executed_steps(production) == 1
    assert production.records[0].delivered == 8 + 3


def test_second_launch_during_setup_is_never_jumped():
    """A second message launched while the first header sets up: two
    headers decide each cycle, and nothing is jumped until the first is
    delivered (cycle 8); the second's set-up is then jumped beside the
    first's worm."""
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(4, 4))
    )
    _run_both(production, reference, 4)
    assert production.fast_forwarded_cycles == 3
    for engine in (production, reference):
        engine.inject(_node(8, 0), _node(8, 6))
    while len(_headers_in_setup(production)) == 2:
        _run_both(production, reference, 1)
    assert production.cycle == 8 and production.fast_forwarded_cycles == 3
    _run_both(production, reference, 2)
    assert not _headers_in_setup(production)
    assert production.fast_forwarded_cycles == 5
    _run_both(production, reference, 200 - production.cycle)
    assert delivered_count(production) == 2


# ----------------------------------------------------------------------
# Named edges of the folded events, the set-up beside worms and MB-m's
# PCS set-up (probe, path acknowledgment walk, front fill: delivered in
# cycle 3l + L - 1 = 55 for the lone message above).
# ----------------------------------------------------------------------
def test_queued_message_launches_when_its_predecessor_runs_dry():
    """Two messages queued at one source: the first's last flit leaves
    in cycle 33, and the jump folds that cycle's launch of the second —
    whose set-up then runs beside the first's draining worm, on
    channels of its own."""
    production, reference = _engine_pair(
        lone_message_cfg(),
        (_node(0, 0), _node(4, 4)), (_node(0, 0), _node(12, 0)),
    )
    _run_both(production, reference, 33)
    second = production.active[1]
    assert second.header_phase is HeaderPhase.PENDING and not second.path
    _run_both(production, reference, 167)
    assert executed_steps(production) == 1
    assert [(r.msg_id, r.injected, r.delivered)
            for r in production.records] == [(0, 2, 40), (1, 35, 69)]


def test_two_tail_ejections_in_one_cycle(monkeypatch):
    """Equal lengths over equal distances: both tails eject in cycle 40,
    inside one jump, and the records are appended in the order the
    ejections are granted."""
    spy = JumpSpy(monkeypatch)
    production, reference = _engine_pair(
        lone_message_cfg(),
        (_node(0, 0), _node(4, 4)), (_node(8, 8), _node(12, 12)),
    )
    _run_both(production, reference, 200)
    assert executed_steps(production) == 8  # two headers set up stepped
    assert spy.fired["tail-ejection"] == 2
    assert [(r.msg_id, r.delivered) for r in production.records] == [
        (0, 40), (1, 40),
    ]


def test_setup_hop_onto_a_streaming_worms_channel_is_stepped():
    """MB-m draws any free VC, so the probe from (2, 0) to (5, 0) finds
    one on the channels the worm from (0, 0) to (6, 0) streams over: its
    control flit would take the worm's data slot, so its hops are
    stepped, and the worm's flits wait for them."""
    production, reference = _engine_pair(
        lone_message_cfg(protocol="mb"), (_node(0, 0), _node(6, 0))
    )
    _run_both(production, reference, 30)
    worm = production.active[0]
    assert worm.path_established and executed_steps(production) == 1
    for engine in (production, reference):
        engine.inject(_node(2, 0), _node(5, 0))
    _run_both(production, reference, 2)
    assert executed_steps(production) == 3
    probe = production.active[1]
    assert [vc.channel_id for vc in probe.path] == [
        vc.channel_id for vc in worm.path[2:4]
    ]
    _run_both(production, reference, 168)
    assert [(r.msg_id, r.delivered) for r in production.records] == [
        (0, 60), (1, 81),
    ]


def test_setup_right_behind_a_draining_worms_tail():
    """A 4-flit worm from (0, 0) to (8, 0) drains, its tail releasing
    one link per cycle; a header from (3, 0) to (7, 3) follows it,
    taking each of those links the cycle after the tail left it (first
    choice: x before y).  A jumped hop must see the releases of the
    cycles before it, not the state the jump started from."""
    production, reference = _engine_pair(lone_message_cfg())
    for engine in (production, reference):
        engine.inject(_node(0, 0), _node(8, 0), length=4)
    _run_both(production, reference, 8)
    for engine in (production, reference):
        engine.inject(_node(3, 0), _node(7, 3))
    follower = production.active[1]
    for _ in range(8):
        _run_both(production, reference, 24)
    assert [(node % 16, node // 16) for node in follower.path_nodes] == [
        (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (7, 1), (7, 2), (7, 3),
    ]
    assert executed_steps(production) == 2
    assert [(r.msg_id, r.delivered) for r in production.records] == [
        (0, 12), (1, 47),
    ]


def test_path_ack_walk_over_a_streaming_worms_channel_is_stepped():
    """An MB-m probe from (0, 0) to (4, 0) is established while a worm
    streams from (6, 0) to (1, 0): the path acknowledgment walks back
    over the worm's channels, taking their data slots, so those cycles
    are stepped."""
    production, reference = _engine_pair(
        lone_message_cfg(protocol="mb"), (_node(6, 0), _node(1, 0))
    )
    _run_both(production, reference, 12)
    assert production.active[0].path_established
    for engine in (production, reference):
        engine.inject(_node(0, 0), _node(4, 0))
    for _ in range(8):
        _run_both(production, reference, 23)
    assert executed_steps(production) == 5
    assert [(r.msg_id, r.delivered) for r in production.records] == [
        (0, 47), (1, 55),
    ]


def _hold(engines, node, ports):
    """Reserve every VC of ``node``'s channels on ``ports`` ((dim,
    direction) pairs) for a circuit that is not simulated, as
    ``_execute_reserve`` would; returns a callable that releases them."""
    channels = [engines[0].topology.channel_id(node, dim, direction)
                for dim, direction in ports]
    for engine in engines:
        for ch in channels:
            for vc in engine.channels.vcs(ch):
                vc.reserve(-1)
                engine._ch_resident[ch] += 1

    def release():
        for engine in engines:
            for ch in channels:
                for vc in engine.channels.vcs(ch):
                    vc.release()
    return release


def _step_both(production, reference, cycles):
    """``_run_both`` one cycle at a time: a jump that diverges and
    converges again inside a longer chunk is seen too."""
    for _ in range(cycles):
        _run_both(production, reference, 1)


def test_parked_probe_waits_out_its_retry_backoff():
    """Every channel out of the source held: the MB-m probe's first
    decision is a retry, 16 cycles of backoff, parked.  The channels
    free in cycle 5, but a parked header's next decision is still WAIT
    (the release only re-decides it in cycle 6): the probe is stepped,
    not jumped, until its timer wakes it in cycle 17."""
    production, reference = _engine_pair(
        lone_message_cfg(protocol="mb"), (_node(0, 0), _node(1, 0))
    )
    release = _hold((production, reference), _node(0, 0),
                    [(0, 1), (0, -1), (1, 1), (1, -1)])
    _step_both(production, reference, 5)
    probe = production.active[0]
    assert probe.parked and probe.wake_at == 17
    release()
    _step_both(production, reference, 195)
    assert [(r.injected, r.delivered) for r in production.records] == [
        (19, 50),
    ]


def test_reconfiguration_freeze_holds_a_header_at_its_source():
    """Under ``routing_freeze`` a header with no path is held, not
    jumped; once the freeze lifts its whole set-up, first hop included,
    is jumped."""
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(4, 4))
    )
    for engine in (production, reference):
        engine.routing_freeze = True
    _step_both(production, reference, 10)
    assert not production.active[0].path
    for engine in (production, reference):
        engine.routing_freeze = False
    _run_both(production, reference, 190)
    assert [(r.injected, r.delivered) for r in production.records] == [
        (12, 50),
    ]
    assert executed_steps(production) == 10


def test_setup_after_a_wait_is_stepped_while_its_train_is_packed():
    """The header waits at (3, 0) for a held channel while its train
    packs two flits per buffer behind it; once it moves on, a packed
    buffer both sends and receives each cycle, so the train is no shift
    of one flit per place and is stepped until it has spread out."""
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(6, 0))
    )
    release = _hold((production, reference), _node(3, 0), [(0, 1)])
    _step_both(production, reference, 12)
    msg = production.active[0]
    assert msg.parked and msg.buffered == [2, 2, 2]
    release()
    _step_both(production, reference, 188)
    assert production.records[0].delivered == 47
    assert executed_steps(production) == 14


@pytest.mark.parametrize("protocol", ["tp", "mb"])
def test_hop_cap_ends_a_setup_jump(protocol):
    """With its livelock cap lowered to 3 hops, the header's fourth
    decision is an abort to recovery: the jump stops before it, the
    abort is stepped, and the retry clone (a fresh cap) is delivered."""
    production, reference = _engine_pair(
        lone_message_cfg(protocol=protocol), (_node(0, 0), _node(4, 4))
    )
    for engine in (production, reference):
        engine.active[0].hop_cap = 3
    for _ in range(10):
        _run_both(production, reference, 20)
    assert production.drop_reasons == {"livelock hop cap exceeded": 1}
    assert [r.status for r in production.records] == ["DROPPED", "DELIVERED"]


def test_header_bound_for_a_streaming_worms_destination_is_stepped():
    """A header launched toward the destination a worm streams into
    would share its ejection port: nothing is jumped while both are
    active."""
    production, reference = _engine_pair(
        lone_message_cfg(), (_node(0, 0), _node(4, 4))
    )
    _run_both(production, reference, 15)
    for engine in (production, reference):
        engine.inject(_node(8, 8), _node(4, 4))
    skipped = production.fast_forwarded_cycles
    while len(production.active) == 2:
        _run_both(production, reference, 1)
    assert production.fast_forwarded_cycles == skipped
    _run_both(production, reference, 200 - production.cycle)
    assert delivered_count(production) == 2


def test_audit_tick_inside_a_path_ack_walk(monkeypatch):
    """MB-m's path acknowledgment walks back over cycles 9-16; an audit
    tick at cycle 12 is stepped, so the walk is jumped in two pieces and
    the auditor finds the half-walked state clean."""
    spy = JumpSpy(monkeypatch)
    cfg = lone_message_cfg(
        protocol="mb",
        resilience=ResilienceConfig(audit_invariants=True, audit_every=12),
    )
    production, reference = _engine_pair(cfg, (_node(0, 0), _node(4, 4)))
    _run_both(production, reference, 11)
    (token,) = production.control_out
    assert token.position == 4 and spy.fired["path-ack-walk"] == 1
    _run_both(production, reference, 1)
    assert production.auditor.audit(production) == []
    _run_both(production, reference, 188)
    assert spy.fired["path-ack-walk"] == 2
    assert production.records[0].delivered == 55
    assert executed_steps(production) == 1 + 200 // 12


def test_dynamic_fault_inside_a_path_ack_walk():
    """A link fault in cycle 12 on the probe's third channel, with the
    path acknowledgment walking back: the walk is jumped up to cycle 11,
    the fault interrupts the circuit in the stepped cycle 12, and the
    source retries the path set-up (no data had left it)."""
    probe = NetworkSimulator(lone_message_cfg(protocol="mb")).engine
    msg = probe.inject(_node(0, 0), _node(4, 4))
    probe.run(9)
    target = msg.path[2].channel_id
    production, reference = _engine_pair(
        lone_message_cfg(protocol="mb"), (_node(0, 0), _node(4, 4))
    )
    for engine in (production, reference):
        engine.dynamic_schedule = DynamicFaultSchedule([
            FaultEvent(cycle=12, kind="link", target=target)
        ])
    _run_both(production, reference, 11)
    (token,) = production.control_out
    assert token.position == 4 and production.fast_forwarded_cycles == 10
    _run_both(production, reference, 1)
    assert production.teardown_counts == {"fault": 1}
    _run_both(production, reference, 188)
    assert production.source_retries == 1
    assert [(r.status, r.delivered) for r in production.records] == [
        ("KILLED", None), ("DELIVERED", 69),
    ]


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
