"""Deadlock diagnosis, victim selection, and watchdog recovery.

Unit tests fabricate a wait-for cycle on an idle engine by reserving
virtual channels by hand; the end-to-end tests run the deliberately
deadlock-prone ``det`` configuration (``dateline=False`` — naive
wormhole on a torus) and assert the watchdog genuinely recovers the
resulting cyclic deadlocks.
"""

import pytest

from repro.sim import postmortem
from repro.sim.config import ResilienceConfig, SimulationConfig
from repro.sim.message import MessageStatus
from repro.sim.postmortem import DeadlockError
from repro.sim.simulator import NetworkSimulator

from tests.conftest import build_engine, drain_engine


def _reserve_all_out(engine, node, owner_id):
    """Reserve every free VC on every healthy channel out of ``node``."""
    topo = engine.topology
    for dim, direction in topo.ports(node):
        ch = topo.channel_id(node, dim, direction)
        for vc in engine.channels.vcs(ch):
            if vc.is_free:
                vc.reserve(owner_id)


def wedged_engine():
    """Two pending headers, each wanting only VCs held by the other."""
    engine = build_engine("tp", k=4, n=2)
    msg_a = engine.inject(0, 2)
    msg_b = engine.inject(1, 3)
    _reserve_all_out(engine, 0, msg_b.msg_id)
    _reserve_all_out(engine, 1, msg_a.msg_id)
    return engine, msg_a, msg_b


class TestDiagnose:
    def test_fabricated_cycle_is_found(self):
        engine, msg_a, msg_b = wedged_engine()
        diagnosis = postmortem.diagnose(engine)
        assert sorted(diagnosis.blocked) == [msg_a.msg_id, msg_b.msg_id]
        holders = {(e.waiter, e.holder) for e in diagnosis.edges}
        assert (msg_a.msg_id, msg_b.msg_id) in holders
        assert (msg_b.msg_id, msg_a.msg_id) in holders
        assert len(diagnosis.cycles) == 1
        assert set(diagnosis.cycles[0]) == {msg_a.msg_id, msg_b.msg_id}

    def test_render_names_cycle_and_edges(self):
        engine, msg_a, msg_b = wedged_engine()
        report = postmortem.diagnose(engine).render()
        assert "blocking cycle" in report
        assert "cycle 1:" in report
        assert f"msg {msg_a.msg_id}" in report
        assert "waits on" in report

    def test_render_without_edges_explains_itself(self):
        engine = build_engine("tp", k=4, n=2)
        engine.inject(0, 2)  # pending but nothing is held: no edges
        diagnosis = postmortem.diagnose(engine)
        assert diagnosis.edges == []
        assert "no wait-for edges" in diagnosis.render()

    def test_teardown_messages_are_not_blocked(self):
        engine, msg_a, _ = wedged_engine()
        msg_a.teardown = True
        diagnosis = postmortem.diagnose(engine)
        assert msg_a.msg_id not in diagnosis.blocked


class TestSelectVictim:
    def test_prefers_cycle_member_with_least_committed_data(self):
        engine, msg_a, msg_b = wedged_engine()
        diagnosis = postmortem.diagnose(engine)
        victim = postmortem.select_victim(diagnosis, engine)
        # Equal committed data (none): lowest id wins for determinism.
        assert victim is msg_a

    def test_skips_messages_already_in_teardown(self):
        engine, msg_a, msg_b = wedged_engine()
        msg_a.teardown = True
        diagnosis = postmortem.diagnose(engine)
        victim = postmortem.select_victim(diagnosis, engine)
        assert victim is msg_b

    def test_no_eligible_victim_returns_none(self):
        engine, msg_a, msg_b = wedged_engine()
        msg_a.teardown = True
        msg_b.teardown = True
        diagnosis = postmortem.diagnose(engine)
        assert postmortem.select_victim(diagnosis, engine) is None

    def test_capped_origins_are_skipped_and_counted(self):
        """A message ejected MAX_VICTIM_EJECTIONS times (by origin, so
        retry clones share the budget) is never selected again."""
        engine, msg_a, msg_b = wedged_engine()
        cap = postmortem.MAX_VICTIM_EJECTIONS
        engine._ejections_by_origin[msg_a.original_id] = cap
        diagnosis = postmortem.diagnose(engine)
        victim = postmortem.select_victim(diagnosis, engine)
        assert victim is msg_b
        assert engine.victim_cap_hits == 1

    def test_all_candidates_capped_returns_none(self):
        engine, msg_a, msg_b = wedged_engine()
        cap = postmortem.MAX_VICTIM_EJECTIONS
        engine._ejections_by_origin[msg_a.original_id] = cap
        engine._ejections_by_origin[msg_b.original_id] = cap
        diagnosis = postmortem.diagnose(engine)
        assert postmortem.select_victim(diagnosis, engine) is None
        assert engine.victim_cap_hits == 1

    def test_frozen_source_held_messages_are_not_victims(self):
        """Under routing_freeze a path-empty header owns no VCs —
        ejecting it could not unblock anything."""
        engine, msg_a, msg_b = wedged_engine()
        engine.routing_freeze = True
        assert not msg_a.path and not msg_b.path
        diagnosis = postmortem.diagnose(engine)
        assert postmortem.select_victim(diagnosis, engine) is None
        assert engine.victim_cap_hits == 0


def gridlock_config(**overrides) -> SimulationConfig:
    """Naive (dateline-free) dimension-order: genuinely deadlocks."""
    base = dict(
        k=6, n=2, protocol="det", protocol_params={"dateline": False},
        offered_load=0.30, message_length=16,
        warmup_cycles=200, measure_cycles=1000, drain_cycles=30_000,
        seed=3, watchdog_cycles=120, max_header_wait=6000,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestWatchdogRecovery:
    def test_gridlock_is_recovered_and_network_drains(self):
        sim = NetworkSimulator(gridlock_config())
        result = sim.run()
        assert result.deadlock_recoveries > 0
        assert result.deadlock_victims
        assert result.teardown_counts.get("deadlock", 0) > 0
        assert sim.engine.network_drained()

    def test_strict_mode_raises_with_rendered_diagnosis(self):
        cfg = gridlock_config(
            resilience=ResilienceConfig(max_deadlock_recoveries=0)
        )
        with pytest.raises(DeadlockError) as excinfo:
            NetworkSimulator(cfg).run()
        assert excinfo.value.diagnosis is not None
        assert "blocking cycle" in str(excinfo.value)
        assert "waits on" in str(excinfo.value)

    def test_victims_are_retried_from_the_source(self):
        sim = NetworkSimulator(gridlock_config())
        sim.run()
        engine = sim.engine
        assert engine.deadlock_victims
        # Every ejected victim's record is terminal: either superseded
        # by a source-retry clone or dropped after the retry budget.
        by_id = {r.msg_id: r for r in engine.records}
        for victim_id in engine.deadlock_victims:
            record = by_id[victim_id]
            assert record.superseded or record.status in (
                "DROPPED", "KILLED"
            )

    def test_recovery_budget_exhaustion_raises(self):
        cfg = gridlock_config(
            resilience=ResilienceConfig(max_deadlock_recoveries=1)
        )
        with pytest.raises(DeadlockError, match="recovery budget"):
            NetworkSimulator(cfg).run()


class TestFrozenMessageStillRaises:
    def test_unrecoverable_stall_raises_even_in_lenient_mode(self):
        # A wedged *teardown* message is ineligible as a victim, so the
        # watchdog must still fail loudly (matching the engine's
        # historical DeadlockError contract).
        engine = build_engine("tp", k=4, n=2, watchdog_cycles=10)
        msg = engine.inject(0, 2)
        for _ in range(3):
            engine.step()
        msg.teardown = True  # freeze: teardown that never progresses
        with pytest.raises(DeadlockError):
            for _ in range(200):
                engine.step()


class TestCycleWalk:
    def test_walk_closes_at_start(self):
        adjacency = {1: [2], 2: [3], 3: [1]}
        walk = postmortem._cycle_walk(adjacency, {1, 2, 3})
        assert walk == [1, 2, 3]

    def test_tarjan_finds_single_scc(self):
        adjacency = {1: [2], 2: [1], 3: [1]}
        sccs = postmortem._tarjan_sccs(adjacency)
        assert {1, 2} in sccs
        assert {3} in sccs
