"""Unit tests for the k-ary n-cube topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import MINUS, PLUS, KAryNCube, cube


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_node_count(self):
        assert KAryNCube(4, 2).num_nodes == 16
        assert KAryNCube(16, 2).num_nodes == 256
        assert KAryNCube(3, 3).num_nodes == 27

    def test_channel_count_is_2n_per_node(self):
        topo = KAryNCube(5, 2)
        assert topo.num_channels == topo.num_nodes * 2 * topo.n

    def test_rejects_radix_below_3(self):
        with pytest.raises(ValueError):
            KAryNCube(2, 2)

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            KAryNCube(4, 0)

    def test_repr_mentions_parameters(self):
        assert "k=4" in repr(KAryNCube(4, 2))


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------
class TestCoordinates:
    def test_coords_of_zero(self, torus4):
        assert torus4.coords(0) == (0, 0)

    def test_coords_dimension_zero_fastest(self, torus4):
        assert torus4.coords(1) == (1, 0)
        assert torus4.coords(4) == (0, 1)

    def test_node_id_roundtrip_all_nodes(self, torus4):
        for node in range(torus4.num_nodes):
            assert torus4.node_id(torus4.coords(node)) == node

    def test_node_id_wraps_coordinates(self, torus4):
        assert torus4.node_id((4, 0)) == torus4.node_id((0, 0))
        assert torus4.node_id((-1, 0)) == torus4.node_id((3, 0))

    def test_node_id_rejects_wrong_arity(self, torus4):
        with pytest.raises(ValueError):
            torus4.node_id((1, 2, 3))

    def test_coords_rejects_out_of_range(self, torus4):
        with pytest.raises(ValueError):
            torus4.coords(16)
        with pytest.raises(ValueError):
            torus4.coords(-1)

    @given(st.integers(min_value=3, max_value=7),
           st.integers(min_value=1, max_value=3),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, k, n, data):
        topo = KAryNCube(k, n)
        node = data.draw(st.integers(min_value=0,
                                     max_value=topo.num_nodes - 1))
        assert topo.node_id(topo.coords(node)) == node


# ---------------------------------------------------------------------------
# Neighborhood
# ---------------------------------------------------------------------------
class TestNeighbors:
    def test_every_node_has_2n_distinct_neighbors(self, torus4):
        for node in range(torus4.num_nodes):
            neighbors = torus4.neighbors(node)
            assert len(neighbors) == 4
            assert len(set(neighbors)) == 4
            assert node not in neighbors

    def test_neighbor_wraps_around(self, torus4):
        edge = torus4.node_id((3, 0))
        assert torus4.neighbor(edge, 0, PLUS) == torus4.node_id((0, 0))
        assert torus4.neighbor(0, 0, MINUS) == edge

    def test_neighbor_involution(self, torus8):
        for node in (0, 13, 37, 63):
            for dim in range(torus8.n):
                for direction in (PLUS, MINUS):
                    step = torus8.neighbor(node, dim, direction)
                    back = torus8.neighbor(step, dim, -direction)
                    assert back == node

    def test_neighbor_rejects_bad_direction(self, torus4):
        with pytest.raises(ValueError):
            torus4.neighbor(0, 0, 2)

    def test_neighbor_rejects_bad_dimension(self, torus4):
        with pytest.raises(ValueError):
            torus4.neighbor(0, 5, PLUS)

    def test_neighbors_symmetric(self, torus3d):
        for node in (0, 17, 42):
            for other in torus3d.neighbors(node):
                assert node in torus3d.neighbors(other)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------
class TestChannels:
    def test_channel_endpoints_consistent(self, torus4):
        for ch_id in range(torus4.num_channels):
            c = torus4.channel(ch_id)
            assert torus4.neighbor(c.src, c.dim, c.direction) == c.dst

    def test_channel_id_lookup(self, torus4):
        for ch_id in range(torus4.num_channels):
            c = torus4.channel(ch_id)
            assert torus4.channel_id(c.src, c.dim, c.direction) == ch_id

    def test_reverse_channel_is_involution(self, torus4):
        for ch_id in range(torus4.num_channels):
            rev = torus4.reverse_channel_id(ch_id)
            assert rev != ch_id
            assert torus4.reverse_channel_id(rev) == ch_id

    def test_reverse_channel_swaps_endpoints(self, torus4):
        for ch_id in (0, 5, 31):
            c = torus4.channel(ch_id)
            r = torus4.channel(torus4.reverse_channel_id(ch_id))
            assert (r.src, r.dst) == (c.dst, c.src)

    def test_channel_between_adjacent(self, torus4):
        ch = torus4.channel_between(0, 1)
        c = torus4.channel(ch)
        assert (c.src, c.dst) == (0, 1)

    def test_channel_between_wrap(self, torus4):
        edge = torus4.node_id((3, 0))
        ch = torus4.channel_between(edge, 0)
        assert torus4.channel(ch).direction == PLUS

    def test_channel_between_non_adjacent_raises(self, torus4):
        with pytest.raises(ValueError):
            torus4.channel_between(0, 2)

    def test_channel_between_same_node_raises(self, torus4):
        with pytest.raises(ValueError):
            torus4.channel_between(3, 3)


# ---------------------------------------------------------------------------
# Minimal-path geometry
# ---------------------------------------------------------------------------
class TestGeometry:
    def test_offset_zero_to_self(self, torus8):
        assert torus8.offsets(5, 5) == (0, 0)

    def test_offset_takes_short_way_around(self, torus8):
        a = torus8.node_id((0, 0))
        b = torus8.node_id((7, 0))
        assert torus8.offset(a, b, 0) == -1
        assert torus8.offset(b, a, 0) == 1

    def test_offset_half_way_positive_on_even_k(self, torus8):
        a = torus8.node_id((0, 0))
        b = torus8.node_id((4, 0))
        assert torus8.offset(a, b, 0) == 4
        assert torus8.offset(b, a, 0) == 4

    def test_distance_symmetric(self, torus8):
        for a, b in ((0, 63), (5, 42), (17, 17)):
            assert torus8.distance(a, b) == torus8.distance(b, a)

    def test_distance_matches_bfs(self, torus4):
        from collections import deque

        def bfs(src, dst):
            seen = {src: 0}
            q = deque([src])
            while q:
                node = q.popleft()
                if node == dst:
                    return seen[node]
                for nxt in torus4.neighbors(node):
                    if nxt not in seen:
                        seen[nxt] = seen[node] + 1
                        q.append(nxt)
            raise AssertionError("unreachable")

        for src in range(0, 16, 3):
            for dst in range(16):
                assert torus4.distance(src, dst) == bfs(src, dst)

    def test_profitable_ports_reduce_distance(self, torus8):
        src, dst = 0, 27
        d = torus8.distance(src, dst)
        for dim, direction in torus8.profitable_ports(src, dst):
            nxt = torus8.neighbor(src, dim, direction)
            assert torus8.distance(nxt, dst) == d - 1

    def test_profitable_ports_empty_at_destination(self, torus8):
        assert torus8.profitable_ports(9, 9) == ()

    def test_profitable_ports_both_ways_on_half_ring(self, torus8):
        a = torus8.node_id((0, 0))
        b = torus8.node_id((4, 0))
        ports = torus8.profitable_ports(a, b)
        assert (0, PLUS) in ports and (0, MINUS) in ports

    def test_is_profitable_agrees_with_port_list(self, torus8):
        src, dst = 3, 50
        ports = set(torus8.profitable_ports(src, dst))
        for dim in range(torus8.n):
            for direction in (PLUS, MINUS):
                expected = (dim, direction) in ports
                assert torus8.is_profitable(src, dst, dim, direction) == expected

    @given(st.integers(min_value=3, max_value=8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_distance_triangle_inequality(self, k, data):
        topo = KAryNCube(k, 2)
        nodes = st.integers(min_value=0, max_value=topo.num_nodes - 1)
        a, b, c = data.draw(nodes), data.draw(nodes), data.draw(nodes)
        assert topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c)

    @given(st.integers(min_value=3, max_value=8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_profitable_step_property(self, k, data):
        topo = KAryNCube(k, 2)
        nodes = st.integers(min_value=0, max_value=topo.num_nodes - 1)
        src, dst = data.draw(nodes), data.draw(nodes)
        if src == dst:
            return
        ports = topo.profitable_ports(src, dst)
        assert ports, "distinct nodes must have a profitable port"
        for dim, direction in ports:
            nxt = topo.neighbor(src, dim, direction)
            assert topo.distance(nxt, dst) < topo.distance(src, dst)

    def test_offsets_are_canonical_range(self, torus8):
        half = torus8.k // 2
        for src in (0, 11, 60):
            for dst in range(torus8.num_nodes):
                for off in torus8.offsets(src, dst):
                    assert -half <= off <= half

    def test_random_node_in_range(self, torus4):
        import random

        rng = random.Random(0)
        for _ in range(50):
            assert 0 <= torus4.random_node(rng) < torus4.num_nodes


class TestSharedGeometry:
    """One instance per ``(k, n)`` serves every simulator of the
    process, so what it memoises must be immutable and keyed without
    collisions."""

    def test_cube_is_one_instance_per_k_n(self):
        assert cube(5, 2) is cube(5, 2)
        assert cube(5, 2) is not cube(5, 3)
        assert (cube(5, 3).k, cube(5, 3).n) == (5, 3)
        with pytest.raises(ValueError):
            cube(2, 2)

    def test_memoised_values_cannot_be_mutated(self):
        topo = cube(6, 2)
        for value in (topo.profitable_ports(0, 9), topo.offsets(0, 9),
                      topo.ports(0), topo.channels):
            with pytest.raises(AttributeError):
                value.append((0, PLUS))
            with pytest.raises(TypeError):
                value[0] = (0, PLUS)
        with pytest.raises(AttributeError):
            topo.channels[0].dst = 0  # frozen dataclass

    def test_ports_is_one_tuple_per_instance(self, torus3d):
        assert torus3d.ports(0) is torus3d.ports(7)
        assert torus3d.ports(0) == tuple(
            (dim, direction) for dim in range(3)
            for direction in (PLUS, MINUS)
        )

    @pytest.mark.parametrize("k, n", [(3, 1), (4, 2), (5, 2), (8, 2), (4, 3)])
    def test_class_keyed_memos_equal_direct_computation(self, k, n):
        """Exhaustive over ``(src, dst)`` on one warm instance: a key
        that merged two classes would hand a later pair an earlier
        pair's value."""
        topo = KAryNCube(k, n)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                offsets = tuple(topo.offset(src, dst, d) for d in range(n))
                assert topo.offsets(src, dst) == offsets
                assert topo.profitable_ports(src, dst) == tuple(
                    (dim, direction) for dim in range(n)
                    for direction in (PLUS, MINUS)
                    if topo.is_profitable(src, dst, dim, direction)
                )
        assert len(topo._offsets_cache) <= k ** n
        assert len(topo._profitable_cache) <= 4 ** n
