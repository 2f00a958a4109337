"""Epoch-transition properties of the route cache, pinned with
hypothesis (DESIGN.md §10).

The online-reconfiguration safety argument leans on two mechanical
facts about :class:`RouteCache`:

* **exact invalidation** — ``_sync`` drops the adaptive/misroute memo
  exactly when :attr:`FaultState.epoch` moves (any fault or
  reconfiguration) and never otherwise, so a candidate tuple can never
  mix channels admitted under two different epochs;
* **restriction filtering** — committed restrictions prune the
  optimistic candidate sets except for the final delivery hop, while
  ``honor_restrictions=False`` (the conservative detour search) and
  the escape layer see every healthy channel.

Both are checked here over arbitrary fault/restriction sequences.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.routing.cache import RouteCache

TOPOLOGY = KAryNCube(5, 2)
_sig = TOPOLOGY.direction_signature
NUM_NODES = TOPOLOGY.num_nodes
NUM_CHANNELS = TOPOLOGY.num_channels

nodes = st.integers(0, NUM_NODES - 1)
channels = st.integers(0, NUM_CHANNELS - 1)
#: A mutation step: fail a link, or commit a reconfiguration with a
#: restriction set and radius.
steps = st.one_of(
    st.tuples(st.just("fail"), channels),
    st.tuples(
        st.just("reconfig"),
        st.tuples(
            st.sets(channels, max_size=8),
            st.integers(1, 3),
        ),
    ),
)


def apply_step(faults: FaultState, step) -> None:
    kind, arg = step
    if kind == "fail":
        if not faults.channel_faulty[arg]:
            faults.fail_link(arg)
    else:
        restricted, radius = arg
        faults.reconfigure(sorted(restricted), unsafe_radius=radius)


# ======================================================================
# Exact invalidation
# ======================================================================
@given(src=nodes, dst=nodes, step=steps)
@settings(max_examples=60)
def test_sync_invalidates_exactly_on_epoch_bump(src, dst, step):
    """Same epoch -> identical cached tuple (identity, not just
    equality); epoch bump -> the memo is dropped and rebuilt."""
    if src == dst:
        return
    faults = FaultState(TOPOLOGY)
    cache = RouteCache(TOPOLOGY, faults)
    before = cache.adaptive_candidates(src, dst, _sig(src, dst), None)
    # No epoch movement: the exact cached object comes back.
    assert cache.adaptive_candidates(src, dst, _sig(src, dst), None) is before
    epoch = faults.epoch
    apply_step(faults, step)
    assert faults.epoch == epoch + 1, "every mutation bumps once"
    assert not cache._adaptive or cache._epoch == epoch
    after = cache.adaptive_candidates(src, dst, _sig(src, dst), None)
    # The memo was rebuilt against the new epoch.
    assert cache._epoch == faults.epoch
    for _, _, ch, _ in after:
        assert not faults.channel_faulty[ch]


@given(
    src=nodes, dst=nodes,
    sequence=st.lists(steps, min_size=1, max_size=6),
)
@settings(max_examples=60)
def test_candidates_never_mix_epochs(src, dst, sequence):
    """After any mutation sequence, every candidate set the cache
    serves is exactly what a fresh cache computes from the current
    fault state — there is no way to observe a stale (mixed-epoch)
    entry."""
    if src == dst:
        return
    faults = FaultState(TOPOLOGY)
    cache = RouteCache(TOPOLOGY, faults)
    for step in sequence:
        cache.adaptive_candidates(src, dst, _sig(src, dst), None)  # populate pre-step
        cache.misroute_candidates(src, dst, _sig(src, dst), None, allow_u_turn=False)
        apply_step(faults, step)
        fresh = RouteCache(TOPOLOGY, faults)
        for honor in (True, False):
            assert cache.adaptive_candidates(
                src, dst, _sig(src, dst), None, honor_restrictions=honor
            ) == fresh.adaptive_candidates(
                src, dst, _sig(src, dst), None, honor_restrictions=honor
            )
            assert cache.misroute_candidates(
                src, dst, _sig(src, dst), None, allow_u_turn=False,
                honor_restrictions=honor,
            ) == fresh.misroute_candidates(
                src, dst, _sig(src, dst), None, allow_u_turn=False,
                honor_restrictions=honor,
            )


# ======================================================================
# Restriction filtering
# ======================================================================
@given(
    src=nodes, dst=nodes,
    restricted=st.sets(channels, min_size=1, max_size=12),
)
@settings(max_examples=60)
def test_restrictions_prune_optimistic_sets_except_final_hop(
    src, dst, restricted
):
    if src == dst:
        return
    faults = FaultState(TOPOLOGY)
    faults.reconfigure(sorted(restricted))
    cache = RouteCache(TOPOLOGY, faults)
    for _, _, ch, next_node in cache.adaptive_candidates(src, dst, _sig(src, dst), None):
        if faults.channel_restricted[ch]:
            assert next_node == dst, (
                "a restricted channel may only appear as the final "
                "delivery hop"
            )
    for _, _, ch, next_node in cache.misroute_candidates(
        src, dst, _sig(src, dst), None, allow_u_turn=False
    ):
        if faults.channel_restricted[ch]:
            assert next_node == dst


@given(
    src=nodes, dst=nodes,
    restricted=st.sets(channels, min_size=1, max_size=12),
)
@settings(max_examples=60)
def test_detour_search_sees_unrestricted_sets(src, dst, restricted):
    """honor_restrictions=False must equal the pre-reconfiguration
    candidate set exactly: restrictions steer, they never remove a
    healthy channel from the recovery search."""
    if src == dst:
        return
    faults = FaultState(TOPOLOGY)
    cache = RouteCache(TOPOLOGY, faults)
    unrestricted = cache.adaptive_candidates(
        src, dst, _sig(src, dst), None, honor_restrictions=False
    )
    faults.reconfigure(sorted(restricted))
    assert cache.adaptive_candidates(
        src, dst, _sig(src, dst), None, honor_restrictions=False
    ) == unrestricted


@given(src=nodes, dst=nodes, step=steps)
@settings(max_examples=60)
def test_escape_layer_survives_any_epoch(src, dst, step):
    """The escape memo is topology-pure: epoch bumps never clear it."""
    if src == dst:
        return
    faults = FaultState(TOPOLOGY)
    cache = RouteCache(TOPOLOGY, faults)
    before = cache.escape(src, dst)
    apply_step(faults, step)
    assert cache.escape(src, dst) == before
