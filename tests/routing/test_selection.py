"""Unit tests for the selection-function helpers."""

from repro.faults.model import FaultState
from repro.network.topology import MINUS, PLUS, KAryNCube
from repro.routing.selection import adaptive_candidate, free_vc_any_class

from tests.conftest import make_context


def _candidate(ctx, node, dst, require_safe):
    sig = ctx.topology.direction_signature(node, dst)
    return adaptive_candidate(ctx, node, dst, sig, require_safe)


def misroute_ports(ctx, node, dst, arrival, allow_u_turn):
    """The (dim, direction) ports of the cached misroute candidates."""
    sig = ctx.topology.direction_signature(node, dst)
    return [
        hop[:2] for hop in ctx.cache.misroute_candidates(
            node, dst, sig, arrival, allow_u_turn
        )
    ]


class TestAdaptiveCandidate:
    def test_finds_profitable_adaptive(self, torus8):
        ctx = make_context(torus8)
        got = _candidate(ctx, 0, 9, require_safe=None)
        assert got is not None
        (dim, direction, ch, next_node), vc = got
        assert torus8.is_profitable(0, 9, dim, direction)
        assert vc.is_free and vc.channel_id == ch
        assert torus8.channel(ch).dst == next_node

    def test_none_at_destination(self, torus8):
        ctx = make_context(torus8)
        assert _candidate(ctx, 4, 4, require_safe=None) is None

    def test_skips_faulty_channel(self, torus8):
        faults = FaultState(torus8)
        # Destination one hop +x away; fail that link.
        dst = torus8.neighbor(0, 0, PLUS)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        ctx = make_context(torus8, faults=faults)
        assert _candidate(ctx, 0, dst, require_safe=None) is None

    def test_skips_busy_adaptive(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.neighbor(0, 0, PLUS)
        ch = torus8.channel_id(0, 0, PLUS)
        ctx.channels.free_adaptive(ch).reserve(7)
        assert _candidate(ctx, 0, dst, require_safe=None) is None

    def test_require_safe_filters_unsafe(self, torus8):
        faults = FaultState(torus8)
        # Failing a node two hops along +x makes the channel into its
        # neighbor unsafe.
        mid = torus8.neighbor(0, 0, PLUS)
        faults.fail_node(torus8.neighbor(mid, 0, PLUS))
        ctx = make_context(torus8, faults=faults)
        ch = torus8.channel_id(0, 0, PLUS)
        assert ctx.faults.channel_unsafe[ch]
        assert _candidate(ctx, 0, mid, require_safe=True) is None
        got = _candidate(ctx, 0, mid, require_safe=False)
        assert got is not None and got[0][:2] == (0, PLUS)

    def test_prefers_earlier_dimension(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((2, 2))
        got = _candidate(ctx, 0, dst, require_safe=None)
        assert got[0][:2] == (0, PLUS)


class TestFreeVCAnyClass:
    def test_returns_first_free(self, torus8):
        ctx = make_context(torus8)
        vc = free_vc_any_class(ctx, 0)
        assert vc.index == 0

    def test_exhausts_pool(self, torus8):
        ctx = make_context(torus8)
        for vc in ctx.channels.vcs(0):
            vc.reserve(1)
        assert free_vc_any_class(ctx, 0) is None


class TestMisroutePorts:
    """The Theorem 2 misroute ports, read off the RouteCache."""

    def test_excludes_profitable(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((3, 3))
        ports = misroute_ports(ctx, 0, dst, arrival=None, allow_u_turn=False)
        for dim, direction in ports:
            assert not torus8.is_profitable(0, dst, dim, direction)

    def test_excludes_reverse_of_arrival(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((3, 3))
        ports = misroute_ports(
            ctx, 0, dst, arrival=(0, PLUS), allow_u_turn=False
        )
        assert (0, MINUS) not in ports

    def test_u_turn_appended_last(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((3, 3))
        ports = misroute_ports(
            ctx, 0, dst, arrival=(0, PLUS), allow_u_turn=True
        )
        assert ports[-1] == (0, MINUS)

    def test_same_dimension_preferred(self, torus8):
        """Theorem 2 premise iii: misroute in the input dimension."""
        ctx = make_context(torus8)
        # Destination 3 hops along +x: both y ports and -x are
        # unprofitable; arriving along x must rank dim 0 first.
        dst = torus8.node_id((3, 0))
        ports = misroute_ports(
            ctx, torus8.node_id((1, 0)), dst, arrival=(1, PLUS),
            allow_u_turn=False,
        )
        assert ports[0][0] == 1

    def test_skips_faulty(self, torus8):
        faults = FaultState(torus8)
        faults.fail_link(torus8.channel_id(0, 1, PLUS))
        ctx = make_context(torus8, faults=faults)
        dst = torus8.node_id((3, 0))
        ports = misroute_ports(ctx, 0, dst, arrival=None, allow_u_turn=False)
        assert (1, PLUS) not in ports


class TestPortUsable:
    """A port is a routing candidate only while its channel is healthy."""

    @staticmethod
    def _ports(ctx, dst):
        sig = ctx.topology.direction_signature(0, dst)
        adaptive = ctx.cache.adaptive_candidates(0, dst, sig, None)
        misroute = ctx.cache.misroute_candidates(0, dst, sig, None, False)
        return [hop[:2] for hop in adaptive + misroute]

    def test_healthy(self, torus8):
        ctx = make_context(torus8)
        dst = torus8.node_id((3, 0))
        assert (0, PLUS) in self._ports(ctx, dst)
        assert (1, PLUS) in self._ports(ctx, dst)

    def test_faulty(self, torus8):
        faults = FaultState(torus8)
        faults.fail_link(torus8.channel_id(0, 0, PLUS))
        ctx = make_context(torus8, faults=faults)
        dst = torus8.node_id((3, 0))
        assert (0, PLUS) not in self._ports(ctx, dst)
        assert (1, PLUS) in self._ports(ctx, dst)
