"""Duato's Protocol (DP) — the fully adaptive wormhole baseline [12].

Virtual channels on each physical channel are partitioned into an
*unrestricted* adaptive set (fully adaptive minimal routing) and a
*restricted* deterministic set (dimension-order with dateline classes,
the deadlock-free escape subnetwork).  The selection function prefers a
free adaptive channel; otherwise it takes the deterministic escape
channel, and blocks (wormhole-style) while that channel is busy —
re-examining the adaptive channels every cycle, so the header grabs
whichever frees first.

DP is a pure wormhole protocol: the header travels in-band as the first
flit of the message, data commits immediately, and there is no
backtracking.  It is therefore *not* fault-tolerant — a header that
meets a faulty channel on its only remaining path is undeliverable (the
engine drops it); the paper only evaluates DP in the fault-free network
(Figure 12).
"""

from __future__ import annotations

from repro.core.flow_control import FlowControlConfig
from repro.network.channel import VCState
from repro.routing.base import (
    WAIT,
    Action,
    Decision,
    RoutingContext,
)
from repro.routing.selection import adaptive_candidate
from repro.sim.message import Message

_RESERVE = Action.RESERVE
_FREE = VCState.FREE


class DuatoProtocol:
    """Fully adaptive minimal wormhole routing (Duato's Protocol)."""

    name = "dp"
    inline_header = True

    def __init__(self) -> None:
        self.flow_control = FlowControlConfig.wormhole()

    def decide(self, ctx: RoutingContext, message: Message) -> Decision:
        node = message.path_nodes[message.header_router]
        dst = message.dst

        # Unrestricted partition: any profitable adaptive channel.  DP
        # has no unsafe store, so safety is ignored (require_safe=None).
        candidate = adaptive_candidate(
            ctx, node, dst, message.header.sig, None
        )
        if candidate is not None:
            hop, vc = candidate
            return Decision(_RESERVE, vc, hop)

        # Restricted partition: the dimension-order escape channel.
        det = ctx.cache.escape(node, dst)
        assert det is not None, "decide() must not be called at destination"
        ch = det[2]
        if ctx.faults.channel_faulty[ch]:
            # A wormhole header cannot retreat; the message is stuck.
            return Decision(
                action=Action.ABORT,
                reason="deterministic channel faulty (DP is not fault-tolerant)",
            )
        vc = ctx.channels.deterministic(ch, det[4])
        if vc.state is _FREE:
            return Decision(_RESERVE, vc, det)
        # Busy escape channel: block and wait; an adaptive channel that
        # frees first will be taken on a later cycle's re-evaluation.
        return WAIT
