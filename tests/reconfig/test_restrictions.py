"""Restriction planning: dead-end pruning, the connectivity safety
valve, and determinism of the derived plan."""

import pytest

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.reconfig.restrictions import UNSAFE_RADIUS, compute_plan


def fresh_faults(k=5, n=2) -> FaultState:
    return FaultState(KAryNCube(k, n))


def isolate_node(faults: FaultState, node: int, keep: int = 1) -> None:
    """Fail all but ``keep`` outgoing channels of ``node``."""
    topo = faults.topology
    ports = list(topo.ports(node))
    for dim, direction in ports[keep:]:
        faults.fail_link(topo.channel_id(node, dim, direction))


class TestComputePlan:
    def test_fault_free_network_has_no_restrictions(self):
        plan = compute_plan(fresh_faults())
        assert plan.restricted_channels == ()
        assert plan.pruned_nodes == ()
        assert plan.connected

    def test_radius_is_committed_verbatim(self):
        plan = compute_plan(fresh_faults())
        assert plan.unsafe_radius == UNSAFE_RADIUS == 2

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError):
            fresh_faults().reconfigure([], unsafe_radius=0)

    def test_epoch_basis_tracks_fault_state(self):
        faults = fresh_faults()
        faults.fail_link(0)
        plan = compute_plan(faults)
        assert plan.epoch_basis == faults.epoch

    def test_dead_end_node_gets_inbound_channels_restricted(self):
        faults = fresh_faults()
        topo = faults.topology
        node = 6
        isolate_node(faults, node, keep=1)
        plan = compute_plan(faults)
        assert node in plan.pruned_nodes
        # Every healthy inbound channel of the pocket node is
        # restricted; its own outgoing channels are not, so it can
        # still inject.
        for dim, direction in topo.ports(node):
            out_ch = topo.channel_id(node, dim, direction)
            in_ch = topo.reverse_channel_id(out_ch)
            if not faults.channel_faulty[in_ch]:
                assert in_ch in plan.restricted_channels
            assert out_ch not in plan.restricted_channels

    def test_plan_is_deterministic(self):
        def build():
            faults = fresh_faults()
            isolate_node(faults, 6, keep=1)
            faults.fail_node(17)
            return compute_plan(faults)

        assert build() == build()

    def test_restricted_channels_are_healthy_and_sorted(self):
        faults = fresh_faults()
        isolate_node(faults, 6, keep=1)
        plan = compute_plan(faults)
        assert list(plan.restricted_channels) == sorted(
            plan.restricted_channels
        )
        for ch in plan.restricted_channels:
            assert not faults.channel_faulty[ch]

    def test_disconnecting_plan_falls_back_to_radius_only(self):
        # A 3-ary ring in one dimension: every node has out-degree 2,
        # so failing one link leaves both endpoints at out-degree 1 and
        # pruning would cascade around the whole ring — the non-pocket
        # set empties or splits, and the safety valve must discard it.
        faults = FaultState(KAryNCube(3, 1))
        faults.fail_link(0)
        plan = compute_plan(faults)
        assert plan.restricted_channels == ()
        assert plan.pruned_nodes == ()
        assert not plan.connected
