"""Unit tests for the fault model (Section 2.4, Figure 3)."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultState
from repro.network.topology import MINUS, PLUS, KAryNCube

TORUS6 = KAryNCube(6, 2)


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
        channels_before = list(faults.channel_faulty)
        epoch = faults.epoch
        faults.fail_node(9)
        assert faults.channel_faulty == channels_before
        assert faults.epoch == epoch

    def test_healthy_nodes_drop_each_failed_node(self, torus8):
        """The ascending healthy list every traffic reader uses loses a
        node when it fails, once."""
        faults = FaultState(torus8)
        assert faults.healthy_nodes == list(range(64))
        for node in (40, 9, 40):
            faults.fail_node(node)
        assert faults.healthy_nodes == [
            n for n in range(64) if n not in (9, 40)
        ]
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        assert len(faults.healthy_nodes) == 62

    def test_failing_node_twice_fails_no_channel(self, torus8):
        """A repeat failure reports no channel, so the engine's fault
        phase does not re-walk the previous event's channels."""
        faults = FaultState(torus8)
        faults.fail_node(9)
        faults.fail_node(9)
        assert faults.last_failed_channels == []

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

    def test_failing_link_twice_fails_no_channel(self, torus8):
        faults = FaultState(torus8)
        ch = torus8.channel_id(0, 0, PLUS)
        faults.fail_link(ch)
        assert sorted(faults.last_failed_channels) == sorted(
            [ch, torus8.reverse_channel_id(ch)]
        )
        faults.fail_link(torus8.reverse_channel_id(ch))
        assert faults.last_failed_channels == []

    def test_link_of_failed_node_fails_no_channel(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(0)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        assert faults.last_failed_channels == []

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


def _unsafe_by_definition(faults: FaultState, radius: int):
    """Healthy ``u -> v`` is unsafe iff ``v`` is within ``radius - 1``
    healthy hops of a node touching a faulty channel (own search)."""
    topo = faults.topology
    dist = {}
    healthy_out = {node: [] for node in range(topo.num_nodes)}
    for ch in range(topo.num_channels):
        c = topo.channel(ch)
        if faults.channel_faulty[ch]:
            dist[c.src] = dist[c.dst] = 0
        else:
            healthy_out[c.src].append(c.dst)
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for v in healthy_out[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return [
        not faults.channel_faulty[ch]
        and dist.get(topo.channel(ch).dst, radius) <= radius - 1
        for ch in range(topo.num_channels)
    ]


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.sets(st.integers(0, TORUS6.num_nodes - 1), max_size=4),
    links=st.sets(st.integers(0, TORUS6.num_channels - 1), max_size=4),
    radius=st.integers(1, 3),
    radius_first=st.booleans(),
)
def test_widened_unsafe_ball_matches_its_definition(
    nodes, links, radius, radius_first
):
    faults = FaultState(TORUS6)
    if radius_first:
        faults.reconfigure((), unsafe_radius=radius)
    for node in sorted(nodes):
        faults.fail_node(node)
    for ch in sorted(links):
        faults.fail_link(ch)
    if not radius_first:
        faults.reconfigure((), unsafe_radius=radius)
    assert faults.channel_unsafe == _unsafe_by_definition(faults, radius)


class TestConnectivity:
    def test_reachable_fault_free(self, torus8):
        faults = FaultState(torus8)
        assert faults.shortest_healthy_distance(0, 63) == 2  # wraparound

    def test_reachable_self(self, torus8):
        faults = FaultState(torus8)
        assert faults.shortest_healthy_distance(5, 5) == 0

    def test_not_reachable_when_endpoint_failed(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(7)
        assert faults.shortest_healthy_distance(0, 7) is None
        assert faults.shortest_healthy_distance(7, 0) is None

    def test_surrounded_node_unreachable(self, torus4):
        faults = FaultState(torus4)
        for nb in torus4.neighbors(5):
            faults.fail_node(nb)
        assert 5 not in faults.hops((0,))
        assert not faults.healthy_nodes_connected()

    def test_connected_with_scattered_faults(self, torus8):
        faults = FaultState(torus8)
        for node in [0, 20, 45]:
            faults.fail_node(node)
        assert faults.healthy_nodes_connected()

    def test_healthy_neighbors_excludes_failed(self, torus8):
        faults = FaultState(torus8)
        faults.fail_node(1)
        one_hop = faults.hops((0,), within=1)
        assert 1 not in one_hop
        assert sorted(one_hop) == sorted({0} | set(torus8.neighbors(0)) - {1})

    def test_hops_never_enters_avoided_nodes(self, torus4):
        faults = FaultState(torus4)
        ring = set(torus4.neighbors(5))
        assert set(faults.hops((0,), avoid=ring)) == (
            set(range(torus4.num_nodes)) - ring - {5}
        )
        assert not faults.healthy_nodes_connected(lost=ring)
        assert faults.healthy_nodes_connected(lost=(5,))

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
