"""Unit tests for the fault model (Section 2.4, Figure 3)."""

from repro.faults.model import FaultState
from repro.network.topology import MINUS, PLUS, KAryNCube


class TestNodeFaults:
    def test_fail_node_marks_all_incident_channels(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(9)
        for dim, direction in torus8.ports(9):
            out_ch = torus8.channel_id(9, dim, direction)
            assert faults.channel_faulty[out_ch]
            assert faults.channel_faulty[torus8.reverse_channel_id(out_ch)]

    def test_fail_node_idempotent(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(9)
        links_before = set(faults.faulty_links)
        faults.fail_node(9)
        assert faults.faulty_links == links_before

    def test_is_node_faulty(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(3)
        assert faults.is_node_faulty(3)
        assert not faults.is_node_faulty(4)

    def test_num_faults_counts_nodes(self, torus8):
        faults = FaultState(torus8)
        for node in [3, 9, 12]:
            faults.fail_node(node)
        assert faults.num_faults == 3

    def test_last_failed_channels_reported(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(0)
        assert len(faults.last_failed_channels) == 4 * torus8.n


class TestLinkFaults:
    def test_fail_link_both_directions(self, torus8):
        faults = FaultState(torus8)
        ch = torus8.channel_id(0, 0, PLUS)
        faults.fail_link(ch)
        assert faults.channel_faulty[ch]
        assert faults.channel_faulty[torus8.reverse_channel_id(ch)]

    def test_fail_link_does_not_fail_nodes(self, torus8):
        faults = FaultState(torus8)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        assert not faults.faulty_nodes

    def test_independent_link_counts_as_one_fault(self, torus8):
        faults = FaultState(torus8)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        assert faults.num_faults == 1

    def test_node_link_not_double_counted(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(0)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))  # already failed
        assert faults.num_faults == 1


class TestUnsafeMarking:
    def test_channels_toward_fault_neighbors_are_unsafe(self, torus8):
        """Figure 3: channels incident on PEs adjacent to failures."""
        faults = FaultState(torus8)
        faults.fail_node(torus8.node_id((2, 2)))
        neighbor = torus8.node_id((1, 2))  # adjacent to the fault
        outside = torus8.node_id((0, 2))
        ch = torus8.channel_id(outside, 0, PLUS)  # outside -> neighbor
        assert faults.channel_unsafe[ch]

    def test_faulty_channels_not_marked_unsafe(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(9)
        for ch in range(torus8.num_channels):
            if faults.channel_faulty[ch]:
                assert not faults.channel_unsafe[ch]

    def test_channels_far_from_faults_safe(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(torus8.node_id((4, 4)))
        far = torus8.node_id((0, 0))
        ch = torus8.channel_id(far, 0, PLUS)
        assert not faults.channel_unsafe[ch]

    def test_no_faults_no_unsafe(self, torus8):
        faults = FaultState(torus8)
        assert not any(faults.channel_unsafe)

    def test_unsafe_recomputed_on_new_fault(self, torus8):
        faults = FaultState(torus8)
        target = torus8.node_id((3, 0))
        ch = torus8.channel_id(torus8.node_id((2, 0)), 0, PLUS)
        assert not faults.channel_unsafe[ch]
        faults.fail_node(torus8.node_id((4, 0)))
        assert faults.channel_unsafe[ch]

    def test_link_fault_marks_neighbors_unsafe(self, torus8):
        faults = FaultState(torus8)
        a = torus8.node_id((2, 0))
        faults.fail_link(torus8.channel_id(a, 0, PLUS))
        into_a = torus8.channel_id(torus8.node_id((1, 0)), 0, PLUS)
        assert faults.channel_unsafe[into_a]


class TestConnectivity:
    def test_reachable_fault_free(self, torus8):
        faults = FaultState(torus8)
        assert faults.reachable(0, 63)

    def test_reachable_self(self, torus8):
        faults = FaultState(torus8)
        assert faults.reachable(5, 5)

    def test_not_reachable_when_endpoint_failed(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(7)
        assert not faults.reachable(0, 7)
        assert not faults.reachable(7, 0)

    def test_surrounded_node_unreachable(self, torus4):
        faults = FaultState(torus4)
        for nb in torus4.neighbors(5):
            faults.fail_node(nb)
        assert not faults.reachable(0, 5)
        assert not faults.healthy_nodes_connected()

    def test_connected_with_scattered_faults(self, torus8):
        faults = FaultState(torus8)
        for node in [0, 20, 45]:
            faults.fail_node(node)
        assert faults.healthy_nodes_connected()

    def test_healthy_neighbors_excludes_failed(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(1)
        assert 1 not in faults.healthy_neighbors(0)

    def test_shortest_healthy_distance_detour(self, torus8):
        faults = FaultState(torus8)
        src = torus8.node_id((0, 0))
        dst = torus8.node_id((2, 0))
        assert faults.shortest_healthy_distance(src, dst) == 2
        faults.fail_node(torus8.node_id((1, 0)))
        assert faults.shortest_healthy_distance(src, dst) == 4

    def test_shortest_healthy_distance_none_when_cut(self, torus4):
        faults = FaultState(torus4)
        for nb in torus4.neighbors(5):
            faults.fail_node(nb)
        assert faults.shortest_healthy_distance(0, 5) is None
