"""MB-m: misrouting backtracking protocol over PCS flow control [17].

The conservative baseline of the paper's evaluation.  The routing
header performs path setup decoupled from data transmission (pipelined
circuit switching): it searches the network depth-first with at most
``m`` misroutes, backtracking — and releasing channels — when stuck,
with a per-node history (the RCU history store) preventing re-searching
output channels already tried on the current path.  Data flits enter
the network only after the header reaches the destination and a path
acknowledgment returns to the source, which makes the protocol
extremely robust but costs the ``3l`` setup latency of Section 2.2.

Because the header never blocks holding partially built paths (it
misroutes or backtracks instead), MB-m needs no virtual-channel class
partition for deadlock freedom; it draws from every VC of a physical
channel.  A search that exhausts the budget retreats to the source and
retries after a backoff; a bounded number of failed attempts marks the
message undeliverable (the higher-level-protocol escape of Section
4.0).
"""

from __future__ import annotations

from typing import Optional

from repro.core.flow_control import FlowControlConfig
from repro.core.header import DEFAULT_MISROUTE_LIMIT, check_misroute_limit
from repro.routing.base import (
    BACKTRACK, WAIT, Action, Decision, RoutingContext,
)
from repro.routing.selection import free_vc_any_class
from repro.sim.message import Message

#: Cycles a search that retreated to the source waits before retrying.
RETRY_BACKOFF = 16

_RESERVE = Action.RESERVE


class MBmProtocol:
    """Misrouting, backtracking protocol with ``m`` misroutes (PCS)."""

    name = "mb"
    inline_header = False

    def __init__(self, misroute_limit: int = DEFAULT_MISROUTE_LIMIT,
                 max_retries: int = 3):
        self.misroute_limit = check_misroute_limit(misroute_limit)
        self.max_retries = max_retries
        self.flow_control = FlowControlConfig.pcs()

    def setup_hop(self, ctx: RoutingContext,
                  message: Message) -> Optional[Decision]:
        """The search's first choice: the first profitable, healthy,
        not-yet-searched channel off the current path with a free VC,
        or ``None`` when there is none.

        A pure function of the header, the fault state and the channel
        occupancy: it mutates nothing, reads no clock and draws no
        random number, so the engine can advance a probe over an idle
        network in closed form by calling it once per hop
        (``repro.sim.fast_forward``) — :meth:`decide` returns the same
        verdict whenever its retry backoff is over.
        """
        j = message.header_router
        tried = message.tried[j]
        # Self-avoiding depth-first search: never re-enter a node on
        # the current path (the walk would cycle); backtracking is the
        # only way back.
        on_path = message.path_nodes
        for hop in ctx.cache.adaptive_candidates(
            message.path_nodes[j], message.dst, message.header.sig, None
        ):
            ch = hop[2]
            if ch in tried or hop[3] in on_path:
                continue
            vc = free_vc_any_class(ctx, ch)
            if vc is not None:
                return Decision(_RESERVE, vc, hop)
        return None

    def decide(self, ctx: RoutingContext, message: Message) -> Decision:
        if ctx.cycle < message.retry_wait:
            return WAIT

        decision = self.setup_hop(ctx, message)
        if decision is not None:
            return decision

        j = message.header_router
        node = message.path_nodes[j]
        dst = message.dst
        sig = message.header.sig
        tried = message.tried[j]
        on_path = set(message.path_nodes)

        # Misroute (preferred over backtracking, Section 3.0) while the
        # budget allows; U-turns are not taken — MB-m backtracks instead.
        if message.header.misroutes < self.misroute_limit:
            for hop in ctx.cache.misroute_candidates(
                node, dst, sig, message.arrival_dims[j], False
            ):
                ch = hop[2]
                if ch in tried or hop[3] in on_path:
                    continue
                vc = free_vc_any_class(ctx, ch)
                if vc is not None:
                    return Decision(_RESERVE, vc, hop, is_misroute=True)

        # Nothing searchable here: retreat (releasing the channel) or,
        # at the source, retry the whole search after a backoff.
        if j > 0:
            return BACKTRACK

        if message.retries < self.max_retries:
            message.retries += 1
            message.retry_wait = ctx.cycle + RETRY_BACKOFF
            message.tried[0].clear()
            return WAIT
        return Decision(
            action=Action.ABORT,
            reason="MB-m search exhausted after retries",
        )
