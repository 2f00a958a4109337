"""Selection-function helpers shared by DP, MB-m, and Two-Phase routing.

The paper separates the *routing function* (the set of candidate output
virtual channels) from the *selection function* (the priority scheme
that picks one).  These helpers enumerate candidate ports under the
safety / profitability / class constraints each protocol needs; the
protocols then apply their priority ordering.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.network.channel import VCState, VirtualChannel
from repro.routing.base import RoutingContext
from repro.routing.cache import Candidate

_FREE = VCState.FREE


def adaptive_candidate(
    ctx: RoutingContext,
    node: int,
    dst: int,
    sig: int,
    require_safe: Optional[bool],
) -> Optional[Tuple[Candidate, VirtualChannel]]:
    """First profitable port with a free adaptive VC, as (hop, vc).

    ``sig`` is the direction class the header carries.
    ``require_safe`` filters on the unsafe-channel designation:
    ``True`` admits only safe channels, ``False`` only unsafe ones,
    ``None`` ignores the designation (the fault-free DP baseline has no
    unsafe store).  Faulty channels are never candidates.  The
    fault-filtered port enumeration comes from the context's
    :class:`~repro.routing.cache.RouteCache`; only the free-VC check
    runs live.
    """
    free_adaptive = ctx.channels.free_adaptive
    for hop in ctx.cache.adaptive_candidates(node, dst, sig, require_safe):
        vc = free_adaptive(hop[2])
        if vc is not None:
            return hop, vc
    return None


def free_vc_any_class(
    ctx: RoutingContext, channel_id: int
) -> Optional[VirtualChannel]:
    """First free VC of any class on a channel (MB-m's undivided pool).

    PCS-based protocols owe their deadlock freedom to backtracking, not
    to a channel-class partition, so MB-m draws from every virtual
    channel of a physical channel.
    """
    for vc in ctx.channels.vcs(channel_id):
        if vc.state is _FREE:
            return vc
    return None
