"""Runtime invariant auditor: clean runs stay clean, corruption is
pinned to a message/channel/cycle, and the engine raises
:class:`InvariantError` from :meth:`Engine.step` when auditing is on.
"""

import pytest

from repro.network.channel import BUFFER_DEPTH
from repro.sim.config import ResilienceConfig, SimulationConfig
from repro.sim.invariants import InvariantAuditor, InvariantError, audit
from repro.sim.message import MessageStatus
from repro.sim.simulator import NetworkSimulator

from tests.conftest import build_engine


def audited_engine(**overrides):
    return build_engine(
        "tp", k=6, n=2,
        resilience=ResilienceConfig(audit_invariants=True, audit_every=1),
        **overrides,
    )


class TestCleanRuns:
    def test_full_simulation_audits_clean(self):
        cfg = SimulationConfig(
            k=6, n=2, protocol="tp", offered_load=0.10,
            message_length=8, warmup_cycles=100, measure_cycles=400,
            seed=7,
            resilience=ResilienceConfig(
                audit_invariants=True, audit_every=10
            ),
        )
        sim = NetworkSimulator(cfg)
        result = sim.run()
        assert result.invariant_checks > 0
        assert sim.engine.auditor.violations_found == 0
        assert result.delivered > 0

    def test_auditor_disabled_by_default(self):
        engine = build_engine("tp", k=6, n=2)
        assert engine.auditor is None

    def test_one_shot_audit_on_idle_engine(self):
        engine = build_engine("tp", k=6, n=2)
        assert audit(engine) == []


class TestCorruptionDetection:
    def test_flit_conservation_violation(self):
        engine = audited_engine()
        msg = engine.inject(0, 3)
        msg.killed_flits += 1  # flits destroyed out of thin air
        violations = audit(engine)
        kinds = {v.kind for v in violations}
        assert "flit-conservation" in kinds
        bad = next(v for v in violations if v.kind == "flit-conservation")
        assert bad.msg_id == msg.msg_id

    def test_buffer_bounds_violation(self):
        engine = audited_engine()
        msg = engine.inject(0, 3)
        for _ in range(6):
            engine.step()
        assert msg.path, "message should have reserved its first link"
        msg.buffered[0] = BUFFER_DEPTH + 5
        violations = InvariantAuditor().audit(engine)
        assert any(v.kind == "buffer-bounds" for v in violations)

    def test_release_consistency_violation(self):
        """``released`` must say exactly what the tail position says."""
        engine = audited_engine()
        msg = engine.inject(0, 3)
        # Audited every cycle on the way: the invariant holds throughout.
        while not (msg.at_source == 0 and msg.tail_idx >= 1):
            engine.step()
        assert not msg.is_terminal() and audit(engine) == []
        tail = msg.tail_idx
        assert msg.released[:tail + 1] == [True] * (tail + 1)
        assert not any(msg.released[tail + 1:])

        msg.tail_idx = tail - 1  # the tail "un-crosses" a released link
        bad = [v for v in audit(engine) if v.kind == "release-consistency"]
        assert bad and bad[0].msg_id == msg.msg_id
        assert bad[0].channel_id == msg.path[tail].channel_id
        msg.tail_idx = tail
        assert audit(engine) == []

        msg.released[tail + 1] = True  # marked free ahead of the tail
        assert any(
            v.kind == "release-consistency" for v in audit(engine)
        )

    def test_vc_state_violation(self):
        engine = audited_engine()
        vc = engine.channels.vc(0, 0)
        vc.owner = 999  # FREE VC with an owner
        violations = audit(engine)
        assert any(v.kind == "vc-state" for v in violations)

    def test_orphaned_reservation_violation(self):
        engine = audited_engine()
        engine.channels.vc(0, 0).reserve(999)  # no such message
        violations = audit(engine)
        assert any(v.kind == "orphaned-reservation" for v in violations)

    def test_index_violation(self):
        engine = audited_engine()
        msg = engine.inject(0, 3)
        # Terminal status while still indexed in the active map.
        msg.status = MessageStatus.DELIVERED
        violations = InvariantAuditor().audit(engine)
        assert any(v.kind == "index" for v in violations)


class TestEngineIntegration:
    def test_step_raises_invariant_error_on_corruption(self):
        engine = audited_engine()
        msg = engine.inject(0, 3)
        for _ in range(4):
            engine.step()
        msg.killed_flits += 3
        with pytest.raises(InvariantError) as excinfo:
            for _ in range(4):
                engine.step()
        assert excinfo.value.violations
        assert "flit-conservation" in str(excinfo.value)

    def test_audit_every_gates_the_frequency(self):
        engine = build_engine(
            "tp", k=6, n=2,
            resilience=ResilienceConfig(
                audit_invariants=True, audit_every=8
            ),
        )
        for _ in range(16):
            engine.step()
        assert engine.auditor.checks_run == 2

    def test_violation_str_names_cycle_message_channel(self):
        engine = audited_engine()
        engine.channels.vc(5, 1).reserve(42)
        violation = next(
            v for v in audit(engine) if v.kind == "orphaned-reservation"
        )
        text = str(violation)
        assert "msg 42" in text
        assert "ch 5" in text
        assert "cycle" in text
