"""Unit tests for fault placement and dynamic schedules."""

import random

import pytest

from repro.faults.injection import (
    DynamicFaultSchedule,
    FaultEvent,
    place_random_node_faults,
    random_dynamic_schedule,
)
from repro.faults.model import FaultState
from repro.network.topology import KAryNCube


class TestStaticPlacement:
    def test_places_exact_count(self, torus8):
        faults = FaultState(torus8)
        failed = place_random_node_faults(faults, 5, random.Random(1))
        assert len(failed) == 5
        assert len(faults.faulty_nodes) == 5

    def test_keeps_connected(self, torus8):
        for seed in range(5):
            faults = FaultState(torus8)
            place_random_node_faults(faults, 12, random.Random(seed))
            assert faults.healthy_nodes_connected()

    def test_protected_nodes_never_fail(self, torus8):
        faults = FaultState(torus8)
        protected = [0, 1, 2, 3]
        place_random_node_faults(
            faults, 10, random.Random(2), protected=protected
        )
        assert not set(protected) & faults.faulty_nodes

    def test_rejects_negative(self, torus8):
        with pytest.raises(ValueError):
            place_random_node_faults(FaultState(torus8), -1, random.Random(1))

    def test_rejects_too_many(self, torus4):
        with pytest.raises(ValueError):
            place_random_node_faults(
                FaultState(torus4), 16, random.Random(1)
            )

    def test_deterministic_for_seed(self, torus8):
        a = FaultState(torus8)
        b = FaultState(torus8)
        fa = place_random_node_faults(a, 6, random.Random(42))
        fb = place_random_node_faults(b, 6, random.Random(42))
        assert fa == fb


class TestDynamicSchedule:
    def test_event_count_and_order(self, torus8):
        sched = random_dynamic_schedule(
            torus8, 8, horizon=1000, rng=random.Random(1)
        )
        cycles = [e.cycle for e in sched.events]
        assert len(cycles) == 8
        assert cycles == sorted(cycles)

    def test_due_consumes_in_order(self, torus8):
        sched = DynamicFaultSchedule(
            events=[
                FaultEvent(cycle=5, kind="link", target=0),
                FaultEvent(cycle=10, kind="link", target=2),
            ]
        )
        assert sched.due(4) == []
        assert len(sched.due(5)) == 1
        assert sched.remaining == 1
        assert len(sched.due(100)) == 1
        assert sched.remaining == 0

    def test_link_targets_distinct_links(self, torus8):
        sched = random_dynamic_schedule(
            torus8, 10, horizon=500, rng=random.Random(3)
        )
        links = set()
        for e in sched.events:
            rev = torus8.reverse_channel_id(e.target)
            links.add((min(e.target, rev), max(e.target, rev)))
        assert len(links) == 10

    def test_apply_event(self, torus8):
        faults = FaultState(torus8)
        FaultEvent(cycle=1, kind="node", target=5).apply(faults)
        assert faults.is_node_faulty(5)
        FaultEvent(cycle=1, kind="link", target=0).apply(faults)
        assert faults.channel_faulty[0]

    def test_bad_kind_rejected(self, torus8):
        faults = FaultState(torus8)
        with pytest.raises(ValueError):
            FaultEvent(cycle=0, kind="gamma-ray", target=0).apply(faults)

    def test_window_respected(self, torus8):
        sched = random_dynamic_schedule(
            torus8, 6, horizon=300, rng=random.Random(5), start_cycle=100
        )
        assert all(100 <= e.cycle < 300 for e in sched.events)

    def test_bad_window(self, torus8):
        with pytest.raises(ValueError):
            random_dynamic_schedule(
                torus8, 1, horizon=10, rng=random.Random(1), start_cycle=20
            )


class TestPlacementRollback:
    """Snapshot/restore rollback must equal a fresh rebuild exactly."""

    @staticmethod
    def _state_tuple(faults: FaultState):
        return (
            set(faults.faulty_nodes),
            set(faults.faulty_links),
            list(faults.channel_faulty),
            list(faults.channel_unsafe),
        )

    def test_rejected_fail_restores_exact_state(self, torus8):
        from repro.faults.injection import (
            _restore_after_rejected_fail,
            _snapshot_before_fail,
        )

        faults = FaultState(torus8)
        kept = [0, 1, 9]
        for node in kept:
            faults.fail_node(node)
        before = self._state_tuple(faults)
        prior_last = list(faults.last_failed_channels)

        candidate = 10  # adjacent to kept faults: shared links exist
        snapshot = _snapshot_before_fail(faults, candidate)
        faults.fail_node(candidate)
        _restore_after_rejected_fail(faults, candidate, snapshot)

        assert self._state_tuple(faults) == before
        assert faults.last_failed_channels == prior_last

        fresh = FaultState(torus8)
        for node in kept:
            fresh.fail_node(node)
        assert self._state_tuple(faults) == self._state_tuple(fresh)

    def test_dense_connected_placement_matches_fresh_rebuild(self, torus8):
        # Heavy placement forces many connectivity rejections; the
        # incremental rollbacks must leave exactly the state a fresh
        # build from the accepted set produces.
        faults = FaultState(torus8)
        failed = place_random_node_faults(faults, 20, random.Random(11))
        assert len(failed) == 20
        assert faults.healthy_nodes_connected()
        fresh = FaultState(torus8)
        for node in failed:
            fresh.fail_node(node)
        assert self._state_tuple(faults) == self._state_tuple(fresh)
