"""RouteCache: memoized candidate sets and epoch invalidation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.header import Header
from repro.core.two_phase import TwoPhaseProtocol
from repro.faults.model import FaultState
from repro.network.channel import VCClass
from repro.network.topology import PLUS, KAryNCube, cube
from repro.routing.base import Action
from repro.routing.cache import RouteCache
from repro.routing.dimension_order import deterministic_route
from repro.routing.duato import DuatoProtocol
from repro.sim.message import Message

from tests.conftest import make_context


def _setup(k=5, n=2):
    topo = KAryNCube(k, n)
    faults = FaultState(topo)
    return topo, faults, RouteCache(topo, faults)


def _fresh_adaptive(topo, faults, node, dst, require_safe, honor=True):
    """Reference computation, bypassing any cache."""
    out = []
    for dim, direction in topo.profitable_ports(node, dst):
        ch = topo.channel_id(node, dim, direction)
        if faults.channel_faulty[ch]:
            continue
        if (honor and faults.channel_restricted[ch]
                and topo.channel(ch).dst != dst):
            continue
        if require_safe is True and faults.channel_unsafe[ch]:
            continue
        if require_safe is False and not faults.channel_unsafe[ch]:
            continue
        out.append((dim, direction, ch, topo.channel(ch).dst))
    return tuple(out)


def _fresh_misroute(topo, faults, node, dst, arrival, allow_u_turn, honor):
    """Reference Theorem 2 ordering: same-dimension ports first, the
    U-turn last and only on request; straight from the definitions."""
    reverse = (arrival[0], -arrival[1]) if arrival is not None else None

    def admitted(port):
        ch = topo.channel_id(node, *port)
        if faults.channel_faulty[ch]:
            return None
        nxt = topo.channel(ch).dst
        if honor and faults.channel_restricted[ch] and nxt != dst:
            return None
        return (port[0], port[1], ch, nxt)

    ports = [
        port for port in topo.ports(node)
        if not topo.is_profitable(node, dst, *port) and port != reverse
    ]
    if arrival is not None:
        ports.sort(key=lambda port: port[0] != arrival[0])  # stable
    if allow_u_turn and reverse is not None:
        ports.append(reverse)
    return tuple(e for e in map(admitted, ports) if e is not None)


_PORTS = st.tuples(st.integers(0, 1), st.sampled_from([-1, +1]))
_QUERY = st.tuples(
    st.integers(0, 35), st.integers(0, 35),          # node, dst (mod N)
    st.sampled_from([None, True, False]),            # require_safe
    st.booleans(),                                   # honor_restrictions
    st.one_of(st.none(), _PORTS), st.booleans(),     # arrival, allow_u_turn
)
_CHANNELS = st.lists(st.integers(0, 143), max_size=6)


@settings(max_examples=60)
@given(
    k=st.sampled_from([4, 5, 6]),
    queries=st.lists(_QUERY, min_size=1, max_size=12),
    early_faults=_CHANNELS, late_faults=_CHANNELS,
    dead_node=st.one_of(st.none(), st.integers(0, 35)),
    plan=st.lists(st.integers(0, 143), max_size=20),
)
def test_cached_sets_equal_fresh_enumeration_across_epochs(
    k, queries, early_faults, late_faults, dead_node, plan
):
    """Whatever the memo is keyed on, a lookup returns what an uncached
    enumeration returns — cold, warm, after fault epochs, and across a
    restriction plan being committed (keys fall back to ``dst``) and
    lifted (keys return to the direction class)."""
    topo = KAryNCube(k, 2)
    faults = FaultState(topo)
    for ch in early_faults:
        faults.fail_link(ch % topo.num_channels)
    cache = RouteCache(topo, faults)

    def check(queries=queries):
        for _ in range(2):  # cold, then warm
            for node, dst, safe, honor, arrival, u_turn in queries:
                node %= topo.num_nodes
                dst %= topo.num_nodes
                if node == dst:
                    continue
                sig = topo.direction_signature(node, dst)
                assert cache.adaptive_candidates(
                    node, dst, sig, safe, honor
                ) == _fresh_adaptive(topo, faults, node, dst, safe, honor)
                assert cache.misroute_candidates(
                    node, dst, sig, arrival, u_turn, honor
                ) == _fresh_misroute(
                    topo, faults, node, dst, arrival, u_turn, honor
                )

    check()
    epoch = faults.epoch
    for ch in late_faults:
        faults.fail_link(ch % topo.num_channels)
    if dead_node is not None:
        faults.fail_node(dead_node % topo.num_nodes)
    check()
    plan = [ch % topo.num_channels for ch in plan]
    faults.reconfigure(plan)
    assert faults.epoch > epoch
    # The final-hop exemption is the one thing that reads ``dst``
    # itself: past a restricted channel's head and then *to* its head
    # are the same direction class but different candidate sets.
    final_hop = []
    for link in map(topo.channel, plan):
        beyond = topo.neighbor(link.dst, link.dim, link.direction)
        final_hop += [(link.src, beyond, None, True, None, False),
                      (link.src, link.dst, None, True, None, False)]
    check(queries + final_hop)
    faults.reconfigure([])
    check()


#: One hop of a header walk: a profitable hop, a misroute, a U-turn
#: onto the reverse of the last hop, a backtrack (the last hop undone,
#: as the engine does: ``apply_hop`` with the direction reversed), or a
#: hop that lands on a half-way tie of an even ring when there is one.
_MOVES = st.sampled_from(
    ["profitable", "misroute", "u_turn", "backtrack", "tie"]
)


def _tie_ports(topo, node, dst):
    """Ports whose hop leaves an exact half-way offset behind."""
    k = topo.k
    return [
        (dim, direction) for dim, direction in topo.ports(node)
        if k % 2 == 0
        and 2 * abs(topo.offset(topo.neighbor(node, dim, direction), dst,
                                dim)) == k
    ]


@settings(max_examples=150)
@given(k=st.integers(3, 9), n=st.integers(1, 3), data=st.data())
def test_header_carries_its_direction_class(k, n, data):
    """The class a header carries is the destination's direction class
    seen from wherever the header is, after any walk — profitable hops,
    misroutes, U-turns, backtracks and half-way ties included — and the
    cache keyed on it serves what an uncached enumeration returns, cold,
    warm and across fault epochs.  A header that lost the tie digit
    (an even ring's half-way offset carried as plain "plus") fails the
    first comparison after a hop onto a tie."""
    topo = cube(k, n)
    faults = FaultState(topo)
    cache = RouteCache(topo, faults)
    node = data.draw(st.integers(0, topo.num_nodes - 1), label="src")
    dst = data.draw(st.integers(0, topo.num_nodes - 1), label="dst")
    header = Header(offsets=list(topo.offsets(node, dst)),
                    sig=topo.direction_signature(node, dst))
    trail = []  # (dim, direction) of every hop not yet backtracked
    for move in data.draw(st.lists(_MOVES, max_size=30), label="walk"):
        if move == "backtrack":
            if not trail:
                continue
            dim, direction = trail.pop()
            header.apply_hop(dim, -direction, k)
            node = topo.neighbor(node, dim, -direction)
        else:
            profitable = topo.profitable_ports(node, dst)
            ports = {
                "profitable": list(profitable),
                "misroute": [p for p in topo.ports(node)
                             if p not in profitable],
                "u_turn": [(trail[-1][0], -trail[-1][1])] if trail else [],
                "tie": _tie_ports(topo, node, dst),
            }[move]
            if not ports:
                continue
            dim, direction = data.draw(st.sampled_from(ports))
            header.apply_hop(dim, direction, k)
            node = topo.neighbor(node, dim, direction)
            trail.append((dim, direction))
        assert header.sig == topo.direction_signature(node, dst)
        assert tuple(header.offsets) == topo.offsets(node, dst)
        if data.draw(st.integers(0, 5), label="fault?") == 0:
            faults.fail_link(
                data.draw(st.integers(0, topo.num_channels - 1))
            )
        if node == dst:
            continue
        arrival = trail[-1] if trail else None
        for safe in (None, True, False):
            assert cache.adaptive_candidates(
                node, dst, header.sig, safe
            ) == _fresh_adaptive(topo, faults, node, dst, safe)
        assert cache.misroute_candidates(
            node, dst, header.sig, arrival, True, False
        ) == _fresh_misroute(topo, faults, node, dst, arrival, True, False)


def test_adaptive_candidates_match_fresh_computation():
    topo, faults, cache = _setup()
    for require_safe in (None, True, False):
        for dst in (7, 13, 24):
            sig = topo.direction_signature(0, dst)
            got = cache.adaptive_candidates(0, dst, sig, require_safe)
            assert got == _fresh_adaptive(topo, faults, 0, dst, require_safe)
            # Second lookup hits the memo and must be the same object.
            assert cache.adaptive_candidates(0, dst, sig, require_safe) is got


def test_epoch_bump_invalidates_fault_dependent_entries():
    topo, faults, cache = _setup()
    dst = 13
    sig = topo.direction_signature(0, dst)
    before = cache.adaptive_candidates(0, dst, sig, None)
    assert before  # there are profitable healthy ports initially

    # Kill one of the cached candidate channels; the stale entry would
    # still list it.
    victim = before[0][2]
    epoch0 = faults.epoch
    faults.fail_link(victim)
    assert faults.epoch > epoch0, "every fault mutation must bump epoch"

    after = cache.adaptive_candidates(0, dst, sig, None)
    assert victim not in [ch for _, _, ch, _ in after]
    assert after == _fresh_adaptive(topo, faults, 0, dst, None)


def test_node_fault_and_unsafe_marking_invalidate():
    topo, faults, cache = _setup()
    dst = 13
    sig = topo.direction_signature(0, dst)
    cache.adaptive_candidates(0, dst, sig, True)
    epoch0 = faults.epoch
    faults.fail_node(12)
    assert faults.epoch > epoch0
    # Safe-only view reflects the new unsafe designations immediately.
    assert cache.adaptive_candidates(0, dst, sig, True) == _fresh_adaptive(
        topo, faults, 0, dst, True
    )


def test_misroute_candidates_theorem2_order():
    topo, faults, cache = _setup()
    node, dst = 0, 6  # both dimensions profitable
    arrival = (0, +1)
    sig = topo.direction_signature(node, dst)
    out = cache.misroute_candidates(node, dst, sig, arrival, allow_u_turn=True)
    assert out, "torus routers always have unprofitable ports"
    # No profitable ports, no faulty channels.
    for dim, direction, ch, nxt in out:
        assert not topo.is_profitable(node, dst, dim, direction)
        assert not faults.channel_faulty[ch]
        assert topo.channel(ch).dst == nxt
    # Same-dimension misroutes come first (Theorem 2 premise iii) and
    # the U-turn (reverse of arrival) comes last.
    dims = [dim for dim, _, _, _ in out]
    same = [i for i, d in enumerate(dims) if d == arrival[0]]
    other = [i for i, d in enumerate(dims) if d != arrival[0]]
    assert out[-1][:2] == (arrival[0], -arrival[1])
    assert all(i < j for i in same[:-1] for j in other if i != len(out) - 1)
    # Without permission there is no U-turn.
    no_u = cache.misroute_candidates(
        node, dst, sig, arrival, allow_u_turn=False
    )
    assert (arrival[0], -arrival[1]) not in [c[:2] for c in no_u]


def test_escape_cache_survives_epoch_bumps():
    topo, faults, cache = _setup()
    node, dst = 0, 13
    first = cache.escape(node, dst)
    det = deterministic_route(topo, node, dst)
    assert det is not None and first is not None
    ch = topo.channel_id(node, det[0], det[1])
    assert first == (det[0], det[1], ch, topo.channel(ch).dst, det[2])
    faults.fail_node(24)
    # Pure topology function: the identical memoized entry survives.
    assert cache.escape(node, dst) is first
    # Arrived-at-destination: no escape hop.
    assert cache.escape(dst, dst) is None


def _fresh_escape(topo, node, dst):
    det = deterministic_route(topo, node, dst)
    if det is None:
        return None
    dim, direction, vclass = det
    ch = topo.channel_id(node, dim, direction)
    return (dim, direction, ch, topo.channel(ch).dst, vclass)


@pytest.mark.parametrize("k, n", [(3, 1), (4, 2), (5, 2), (8, 2), (4, 3)])
def test_class_keyed_escape_is_the_escape_function(k, n):
    """Exhaustive over ``(node, dst)`` through one table, cold then
    warm: a key that dropped the wrap bit, or took the class of another
    dimension, would hand a later pair an earlier pair's hop.  Half-way
    ties of an even ring, both dateline classes and ``node == dst`` are
    all among the pairs."""
    topo = KAryNCube(k, n)
    cache = RouteCache(topo, FaultState(topo))
    classes = set()
    for _ in range(2):
        for node in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                hop = cache.escape(node, dst)
                assert hop == _fresh_escape(topo, node, dst), (node, dst)
                if hop is not None:
                    classes.add(hop[4])
    assert cache.escape(0, 0) is None
    assert classes == {VCClass.DETERMINISTIC_0, VCClass.DETERMINISTIC_1}
    assert cache._escape is topo.escape_hops
    assert len(topo.escape_hops) <= 4 * n * topo.num_nodes


@settings(max_examples=300)
@given(node=st.integers(0, 255), dst=st.integers(0, 255))
def test_class_keyed_escape_on_the_shared_paper_cube(node, dst):
    """The 16-ary 2-cube every paper-scale simulator of this process
    shares, in whatever state earlier tests left its table."""
    topo = cube(16, 2)
    cache = RouteCache(topo, FaultState(topo))
    assert cache.escape(node, dst) == _fresh_escape(topo, node, dst)
    assert RouteCache(topo, FaultState(topo))._escape is cache._escape


class TestEscapeCacheFaultSafety:
    """The escape memo deliberately survives epoch bumps ("fault status
    of the escape channel is the caller's concern") — these tests pin
    the caller-side contract that makes never clearing it safe: with a
    *stale warm entry* in the cache, a fault landing on the cached
    escape channel can never route a header into it, an unsafe marking
    admits it only under scouting flow control, and a reconfiguration
    restriction leaves it usable by design (the escape network's
    deadlock freedom does not depend on restrictions)."""

    def _setup(self, torus8):
        faults = FaultState(torus8)
        ctx = make_context(torus8, faults=faults)
        dst = torus8.node_id((3, 0))  # dim 0 the only profitable dim
        det_ch = torus8.channel_id(0, 0, PLUS)
        # Warm the escape memo before any fault exists.
        entry = ctx.cache.escape(0, dst)
        assert entry is not None and entry[2] == det_ch
        return ctx, faults, dst, det_ch, entry

    @staticmethod
    def _msg(topo, dst):
        return Message(
            msg_id=1, src=0, dst=dst, length=4,
            offsets=topo.offsets(0, dst),
            sig=topo.direction_signature(0, dst), created_cycle=0,
            inline_header=True,
        )

    def test_faulted_escape_channel_never_reserved(self, torus8):
        ctx, faults, dst, det_ch, entry = self._setup(torus8)
        faults.fail_link(det_ch)
        # The stale entry survives the epoch bump (by design) ...
        assert ctx.cache.escape(0, dst) is entry
        # ... yet no protocol routes a header into the dead channel:
        # every caller re-checks channel_faulty live.
        for proto in (TwoPhaseProtocol(), DuatoProtocol()):
            d = proto.decide(ctx, self._msg(torus8, dst))
            if d.action is Action.RESERVE:
                assert d.vc.channel_id != det_ch
        # Duato has no detour fallback: the faulty escape aborts.
        d = DuatoProtocol().decide(ctx, self._msg(torus8, dst))
        assert d.action is Action.ABORT

    def test_unsafe_escape_channel_only_under_scouting(self, torus8):
        ctx, faults, dst, det_ch, entry = self._setup(torus8)
        # A node fault two hops ahead marks the escape channel's head
        # node at-risk, so the cached channel is now unsafe.
        faults.fail_node(torus8.node_id((2, 0)))
        assert faults.channel_unsafe[det_ch]
        assert ctx.cache.escape(0, dst) is entry
        msg = self._msg(torus8, dst)
        d = TwoPhaseProtocol(k_unsafe=3).decide(ctx, msg)
        if d.action is Action.RESERVE and d.vc.channel_id == det_ch:
            # Entering the fault vicinity must have switched the
            # header to scouting (SR) flow control.
            assert msg.header.sr
            assert d.k == 3

    def test_restricted_escape_channel_stays_usable(self, torus8):
        ctx, faults, dst, det_ch, entry = self._setup(torus8)
        faults.reconfigure([det_ch])
        assert faults.channel_restricted[det_ch]
        assert ctx.cache.escape(0, dst) is entry
        # Restrictions prune the optimistic adaptive set ...
        assert det_ch not in [
            c[2] for c in ctx.cache.adaptive_candidates(
                0, dst, torus8.direction_signature(0, dst), None
            )
        ]
        # ... but the escape layer is exempt (steering, not
        # correctness): DP falls back to the deterministic escape VC
        # on the restricted channel instead of wedging.
        d = TwoPhaseProtocol().decide(ctx, self._msg(torus8, dst))
        assert d.action is Action.RESERVE
        assert d.vc.channel_id == det_ch
        assert d.vc.vclass.is_deterministic
