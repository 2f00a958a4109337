"""Bounds of the source-side recovery decision
(:func:`repro.sim.control.kill_reached_source`).

The kill-flit teardown always ends at the source, which then chooses:
retransmit (fault with data committed, tail-ack mode), source-retry
(no data committed, or aborted path construction), or drop.  These
tests pin the retry budgets, the lineage metadata carried by clones,
and the dead-endpoint short-circuits.
"""

from repro.network.topology import KAryNCube
from repro.sim.config import RecoveryConfig
from repro.sim.control import MAX_SOURCE_RETRIES, teardown
from repro.sim.message import MessageStatus

from tests.conftest import build_engine, drain_engine, run_to_completion
from tests.faults.test_recovery import engine_with_fault_at


def live_clone_of(engine, original):
    """The requeued retry clone of ``original`` (steps until launched)."""
    for _ in range(10):
        for msg in engine.active.values():
            if (
                msg.original_id == original.original_id
                and msg.msg_id != original.msg_id
                and not msg.is_terminal()
            ):
                return msg
        engine.step()
    return None


def establish_path(engine, msg, max_cycles: int = 60):
    for _ in range(max_cycles):
        engine.step()
        if msg.path:
            return
    raise AssertionError("message never reserved its first link")


class TestRetransmitBounds:
    def test_clone_preserves_lineage_metadata(self):
        recovery = RecoveryConfig(tail_ack=True, retransmit=True)
        engine, topo = engine_with_fault_at(
            8, 0, hop=2, cycle=10, recovery=recovery
        )
        msg = engine.inject(0, topo.node_id((4, 0)), length=16)
        run_to_completion(engine, msg)
        assert msg.status is MessageStatus.KILLED
        clone = live_clone_of(engine, msg)
        assert clone is not None
        assert clone.created_cycle == msg.created_cycle
        assert clone.original_id == msg.msg_id
        assert clone.retransmits == msg.retransmits + 1
        drain_engine(engine)

    def test_max_retransmits_exhausted_kills_for_good(self):
        recovery = RecoveryConfig(
            tail_ack=True, retransmit=True, max_retransmits=2
        )
        engine, topo = engine_with_fault_at(
            8, 0, hop=2, cycle=10, recovery=recovery
        )
        msg = engine.inject(0, topo.node_id((4, 0)), length=16)
        msg.retransmits = recovery.max_retransmits  # budget already spent
        run_to_completion(engine, msg)
        drain_engine(engine)
        assert msg.status is MessageStatus.KILLED
        record = next(r for r in engine.records if r.msg_id == msg.msg_id)
        assert not record.superseded  # terminal, not replaced by a clone

    def test_dead_destination_is_not_retried(self):
        topo = KAryNCube(8, 2)
        engine, _ = engine_with_fault_at(
            8, 0, hop=2, cycle=10,
            recovery=RecoveryConfig(tail_ack=True, retransmit=True),
        )
        dst = topo.node_id((4, 0))
        msg = engine.inject(0, dst, length=16)
        engine.faults.fail_node(dst)  # destination dies mid-flight
        run_to_completion(engine, msg)
        drain_engine(engine)
        assert msg.status is MessageStatus.KILLED
        record = next(r for r in engine.records if r.msg_id == msg.msg_id)
        assert not record.superseded
        assert not engine.queues[0]  # no clone was requeued


class TestSourceRetryBounds:
    def test_aborted_setup_retries_until_budget_then_drops(self):
        engine = build_engine("tp", k=8, n=2)
        topo = engine.topology
        msg = engine.inject(0, topo.node_id((4, 0)))
        lineage = [msg]
        current = msg
        while True:
            establish_path(engine, current)
            teardown(engine, current, "abort", current.header_router)
            run_to_completion(engine, current)
            clone = live_clone_of(engine, current)
            if clone is None:
                break
            lineage.append(clone)
            current = clone
        # Original + exactly MAX_SOURCE_RETRIES clones.
        assert len(lineage) == 1 + MAX_SOURCE_RETRIES
        assert current.status is MessageStatus.DROPPED
        assert current.drop_reason == "undeliverable"
        for earlier in lineage[:-1]:
            record = next(
                r for r in engine.records if r.msg_id == earlier.msg_id
            )
            assert record.superseded
        assert all(
            m.created_cycle == msg.created_cycle for m in lineage
        )
        drain_engine(engine)

    def test_dead_source_drops_instead_of_retrying(self):
        engine = build_engine("tp", k=8, n=2)
        topo = engine.topology
        msg = engine.inject(0, topo.node_id((4, 0)))
        establish_path(engine, msg)
        engine.faults.fail_node(0)  # source dies
        teardown(engine, msg, "abort", msg.header_router)
        run_to_completion(engine, msg)
        assert msg.status is MessageStatus.DROPPED
        assert live_clone_of(engine, msg) is None
