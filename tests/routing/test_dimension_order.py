"""Dimension-order routing and dateline classes, stated independently.

The functions below restate the escape rule from the paper's
construction (Section 4.0: e-cube order, shortest direction, a dateline
per ring) without the packed key the simulator uses
(:meth:`KAryNCube.escape_class`, decoded by
:meth:`~repro.routing.cache.RouteCache.escape`).  The tests here pin
the rule itself; ``test_route_cache.py`` checks the simulator's escape
hop against :func:`deterministic_route` on every ``(node, dst)`` pair.
"""

from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultState
from repro.network.channel import VCClass
from repro.network.topology import MINUS, PLUS, KAryNCube
from repro.routing.cache import RouteCache


def next_hop(topology: KAryNCube, node: int,
             dst: int) -> Optional[Tuple[int, int]]:
    """Lowest dimension still to correct, shortest way round (positive
    on ties); ``None`` at the destination."""
    for dim in range(topology.n):
        off = topology.offset(node, dst, dim)
        if off > 0:
            return (dim, PLUS)
        if off < 0:
            return (dim, MINUS)
    return None


def crosses_wrap(topology: KAryNCube, node: int, dst: int, dim: int,
                 direction: int) -> bool:
    """Whether the ring path ``node -> dst`` along ``dim`` in
    ``direction`` still crosses the dateline (``k-1 -> 0`` going
    positive, ``0 -> k-1`` going negative)."""
    c = topology.coords(node)[dim]
    t = topology.coords(dst)[dim]
    if c == t:
        return False
    if direction == PLUS:
        return c > t
    return c < t


def dateline_class(topology: KAryNCube, node: int, dst: int, dim: int,
                   direction: int) -> VCClass:
    """Class 0 while the wrap crossing is ahead, class 1 otherwise."""
    if crosses_wrap(topology, node, dst, dim, direction):
        return VCClass.DETERMINISTIC_0
    return VCClass.DETERMINISTIC_1


def deterministic_route(topology: KAryNCube, node: int,
                        dst: int) -> Optional[Tuple[int, int, VCClass]]:
    """The escape hop: port plus dateline class."""
    hop = next_hop(topology, node, dst)
    if hop is None:
        return None
    dim, direction = hop
    return (dim, direction, dateline_class(topology, node, dst, dim, direction))


@pytest.mark.parametrize("k, n", [(3, 3), (6, 2), (7, 2), (9, 1)])
def test_simulator_escape_follows_the_rule(k, n):
    """The packed escape key, decoded by ``RouteCache.escape``, is the
    rule above on every ``(node, dst)`` pair."""
    topo = KAryNCube(k, n)
    cache = RouteCache(topo, FaultState(topo))
    for node in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            entry = cache.escape(node, dst)
            det = deterministic_route(topo, node, dst)
            if det is None:
                assert entry is None
            else:
                assert (entry[0], entry[1], entry[4]) == det


class TestNextHop:
    def test_none_at_destination(self, torus8):
        assert next_hop(torus8, 7, 7) is None

    def test_lowest_dimension_first(self, torus8):
        src = torus8.node_id((0, 0))
        dst = torus8.node_id((2, 3))
        assert next_hop(torus8, src, dst) == (0, PLUS)

    def test_moves_to_higher_dim_when_low_done(self, torus8):
        src = torus8.node_id((2, 0))
        dst = torus8.node_id((2, 3))
        assert next_hop(torus8, src, dst) == (1, PLUS)

    def test_short_way_around(self, torus8):
        src = torus8.node_id((0, 0))
        dst = torus8.node_id((7, 0))
        assert next_hop(torus8, src, dst) == (0, MINUS)

    def test_full_path_is_minimal(self, torus8):
        src, dst = 3, 60
        node = src
        hops = 0
        while node != dst:
            dim, direction = next_hop(torus8, node, dst)
            node = torus8.neighbor(node, dim, direction)
            hops += 1
            assert hops <= torus8.distance(src, dst)
        assert hops == torus8.distance(src, dst)

    @given(st.integers(min_value=3, max_value=9), st.data())
    @settings(max_examples=50, deadline=None)
    def test_always_profitable(self, k, data):
        topo = KAryNCube(k, 2)
        nodes = st.integers(min_value=0, max_value=topo.num_nodes - 1)
        src, dst = data.draw(nodes), data.draw(nodes)
        if src == dst:
            return
        dim, direction = next_hop(topo, src, dst)
        assert topo.is_profitable(src, dst, dim, direction)


class TestDateline:
    def test_no_wrap_needed(self, torus8):
        src = torus8.node_id((1, 0))
        dst = torus8.node_id((3, 0))
        assert not crosses_wrap(torus8, src, dst, 0, PLUS)
        assert dateline_class(torus8, src, dst, 0, PLUS) is (
            VCClass.DETERMINISTIC_1
        )

    def test_wrap_ahead_uses_class0(self, torus8):
        src = torus8.node_id((6, 0))
        dst = torus8.node_id((1, 0))
        assert crosses_wrap(torus8, src, dst, 0, PLUS)
        assert dateline_class(torus8, src, dst, 0, PLUS) is (
            VCClass.DETERMINISTIC_0
        )

    def test_after_wrap_switches_to_class1(self, torus8):
        src = torus8.node_id((0, 0))
        dst = torus8.node_id((1, 0))
        assert not crosses_wrap(torus8, src, dst, 0, PLUS)

    def test_negative_direction_wrap(self, torus8):
        src = torus8.node_id((1, 0))
        dst = torus8.node_id((6, 0))
        assert crosses_wrap(torus8, src, dst, 0, MINUS)

    def test_class1_never_uses_wrap_edge(self, torus8):
        """The dateline invariant that breaks ring cycles."""
        k = torus8.k
        for t in range(k):
            dst = torus8.node_id((t, 0))
            # Positive wrap edge leaves coordinate k-1.
            src = torus8.node_id((k - 1, 0))
            if t != k - 1:
                cls = dateline_class(torus8, src, dst, 0, PLUS)
                assert cls is VCClass.DETERMINISTIC_0
            # Negative wrap edge leaves coordinate 0.
            src = torus8.node_id((0, 0))
            if t != 0:
                cls = dateline_class(torus8, src, dst, 0, MINUS)
                assert cls is VCClass.DETERMINISTIC_0

    def test_class0_edges_acyclic_per_ring(self, torus8):
        """Class-0 edges never cover a whole ring for any destination."""
        k = torus8.k
        for t in range(k):
            dst = torus8.node_id((t, 0))
            class0_edges = 0
            for c in range(k):
                src = torus8.node_id((c, 0))
                if c == t:
                    continue
                hop = next_hop(torus8, src, dst)
                if hop is None or hop[0] != 0:
                    continue
                if dateline_class(torus8, src, dst, 0, hop[1]) is (
                    VCClass.DETERMINISTIC_0
                ):
                    class0_edges += 1
            assert class0_edges < k


class TestDeterministicRoute:
    def test_returns_none_at_destination(self, torus8):
        assert deterministic_route(torus8, 5, 5) is None

    def test_combines_hop_and_class(self, torus8):
        src = torus8.node_id((6, 2))
        dst = torus8.node_id((1, 2))
        dim, direction, vclass = deterministic_route(torus8, src, dst)
        assert (dim, direction) == (0, PLUS)
        assert vclass is VCClass.DETERMINISTIC_0

    def test_walk_terminates_everywhere(self, torus8):
        for src in (0, 9, 33):
            for dst in range(0, torus8.num_nodes, 7):
                node, steps = src, 0
                while node != dst:
                    det = deterministic_route(torus8, node, dst)
                    node = torus8.neighbor(node, det[0], det[1])
                    steps += 1
                    assert steps <= 2 * torus8.k
