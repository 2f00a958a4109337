"""The Two-Phase (TP) fault-tolerant routing protocol (Section 4.0).

The paper's primary contribution: a protocol that routes optimistically
— Duato's Protocol restrictions with wormhole-like flow control (K=0,
no acknowledgments) — through fault-free regions, and conservatively —
scouting flow control with misrouting, backtracking, and detour
construction — in the vicinity of faults.  The structure follows the
pseudocode of Figure 6:

DP phase (per pending header, highest priority first)
    1. a *safe* profitable adaptive channel;
    2. the *safe* deterministic (escape) channel — blocking while it is
       merely busy, with the adaptive channels re-examined every cycle;
    3. if the deterministic channel is faulty or unsafe: an *unsafe*
       profitable adaptive channel — crossing it switches the header to
       SR mode (SR bit set; every subsequently reserved channel is
       programmed with the scouting distance K);
    4. an *unsafe* deterministic channel (same SR switch);
    5. otherwise the header enters detour mode.

Detour phase
    Route profitably over any adaptive channel; misroute (at most ``m``
    times, preferring the input channel's dimension, with a U-turn as
    the last resort when backtracking is impossible); else backtrack —
    the scouting gap guarantees the probe can retreat to the first data
    flit.  Stuck probes retry in place and finally abort to the
    recovery mechanism.

Two standard configurations from the evaluation:

* **aggressive** (Figures 13/14 and the K=0 series of Figure 15):
  ``k_unsafe = 0`` — no acknowledgment traffic at all; faults are
  handled purely by detour construction;
* **conservative** (the K=3 series of Figure 15): ``k_unsafe = 3`` —
  Theorem 2's sufficient scouting distance is programmed into every
  channel crossed after the first unsafe channel.
"""

from __future__ import annotations

from typing import Optional

from repro.core import detour as detour_rules
from repro.core.flow_control import FlowControlConfig
from repro.core.header import DEFAULT_MISROUTE_LIMIT, check_misroute_limit
from repro.network.channel import VCState
from repro.routing.base import (
    BACKTRACK, WAIT, Action, Decision, RoutingContext,
)
from repro.routing.selection import adaptive_candidate
from repro.sim.message import Message, TPMode

#: A probe stuck at its first data flit (or the source) retries in
#: place this many times, each after this many cycles, before the
#: message is handed to the recovery mechanism.
MAX_RETRIES = 3
RETRY_BACKOFF = 16

_RESERVE = Action.RESERVE
_DETOUR = TPMode.DETOUR
_FREE = VCState.FREE


class TwoPhaseProtocol:
    """Fully adaptive, deadlock-free Two-Phase fault-tolerant routing."""

    name = "tp"
    inline_header = False

    def __init__(self, k_unsafe: int = 0,
                 misroute_limit: int = DEFAULT_MISROUTE_LIMIT):
        self.misroute_limit = check_misroute_limit(misroute_limit)
        self.flow_control = FlowControlConfig.scouting(
            k_safe=0, k_unsafe=k_unsafe
        )
        #: Scouting distance to program, indexed by the header's SR bit.
        self._k_by_sr = (self.flow_control.k_for(False),
                         self.flow_control.k_for(True))

    # ------------------------------------------------------------------
    def decide(self, ctx: RoutingContext, message: Message) -> Decision:
        if message.tp_mode is _DETOUR:
            return self._decide_detour(ctx, message)
        return self._decide_dp(ctx, message)

    # ------------------------------------------------------------------
    # Optimistic phase: DP routing restrictions over safe channels.
    # ------------------------------------------------------------------
    def setup_hop(self, ctx: RoutingContext,
                  message: Message) -> Optional[Decision]:
        """Step 1 of the DP phase: reserve a safe profitable adaptive
        channel, or ``None`` when no such channel has a free VC.

        A pure function of the header, the fault state and the channel
        occupancy: it mutates nothing, reads no clock and draws no
        random number.  That is what lets the engine advance a header's
        set-up over channels no other message holds in closed form by
        calling it once per hop (``repro.sim.fast_forward``) — the
        verdict it applies is the one :meth:`decide` would have returned
        in that cycle.
        """
        candidate = adaptive_candidate(
            ctx, message.path_nodes[message.header_router], message.dst,
            message.header.sig, True,
        )
        if candidate is None:
            return None
        hop, vc = candidate
        return Decision(_RESERVE, vc, hop, self._k_by_sr[message.header.sr])

    def _decide_dp(self, ctx: RoutingContext, message: Message) -> Decision:
        # 1. Safe profitable adaptive channel.
        decision = self.setup_hop(ctx, message)
        if decision is not None:
            return decision

        node = message.path_nodes[message.header_router]
        dst = message.dst
        header = message.header
        sig = header.sig

        # 2. Safe deterministic channel: take it, or block while busy.
        det = ctx.cache.escape(node, dst)
        assert det is not None, "decide() must not be called at destination"
        det_ch = det[2]
        det_faulty = ctx.faults.channel_faulty[det_ch]
        det_unsafe = ctx.faults.channel_unsafe[det_ch]
        if not det_faulty and not det_unsafe:
            vc = ctx.channels.deterministic(det_ch, det[4])
            if vc.state is _FREE:
                return Decision(_RESERVE, vc, det, self._k_by_sr[header.sr])
            if vc.owner == message.msg_id:
                # A post-detour path is a walk and may revisit this
                # physical channel: the escape VC is held by this very
                # message and can never free while its header blocks.
                # Treat it as unavailable and fall through to the
                # conservative machinery instead of deadlocking.
                detour_rules.enter_detour(message)
                return self._decide_detour(ctx, message)
            return WAIT  # blocks; adaptive channels re-checked next cycle

        # 3. Unsafe profitable adaptive channel — entering the fault
        # vicinity switches flow control from WR to SR.
        candidate = adaptive_candidate(ctx, node, dst, sig, False)
        if candidate is not None:
            hop, vc = candidate
            header.sr = True
            return Decision(_RESERVE, vc, hop, self._k_by_sr[True])

        # 4. Unsafe deterministic channel.
        if not det_faulty and det_unsafe:
            vc = ctx.channels.deterministic(det_ch, det[4])
            if vc.state is _FREE:
                header.sr = True
                return Decision(_RESERVE, vc, det, self._k_by_sr[True])

        # 5. No way forward under DP restrictions: construct a detour.
        detour_rules.enter_detour(message)
        return self._decide_detour(ctx, message)

    # ------------------------------------------------------------------
    # Conservative phase: unrestricted depth-first detour search.
    # ------------------------------------------------------------------
    def _decide_detour(self, ctx: RoutingContext,
                       message: Message) -> Decision:
        if ctx.cycle < message.retry_wait:
            return WAIT

        j = message.header_router
        node = message.path_nodes[j]
        dst = message.dst
        header = message.header
        tried = message.tried[j]
        k_now = self._k_by_sr[header.sr]
        can_backtrack = j > 0 and j > message.head_link + 1
        # The depth-first search is self-avoiding: stepping onto a node
        # already on the path would open a cycle in the walk, thrash
        # the misroute budget, and (worst case) block on the message's
        # own channels.  The history store's role in hardware.  The
        # deliberate U-turn below is the single exception.
        on_path = set(message.path_nodes)
        free_adaptive = ctx.channels.free_adaptive

        # Profitable over any adaptive channel, safety ignored — and
        # reconfiguration restrictions ignored too: the detour search's
        # deliverability argument (Theorem 2) needs every healthy
        # channel, so restrictions only steer the optimistic phase.
        for hop in ctx.cache.adaptive_candidates(
            node, dst, header.sig, None, False
        ):
            ch = hop[2]
            if ch in tried:
                continue
            if hop[3] in on_path and hop[3] != dst:
                continue
            vc = free_adaptive(ch)
            if vc is not None:
                return Decision(_RESERVE, vc, hop, k_now, True)

        # Misroute within budget; the U-turn onto the reverse channel is
        # taken only when retreating is impossible ("the header can
        # route using the virtual channels in the opposite direction").
        if header.misroutes < self.misroute_limit:
            arrival = message.arrival_dims[j]
            # The U-turn port is the reverse of the arrival port.
            if arrival is None:
                u_dim = u_direction = 0
            else:
                u_dim, u_direction = arrival[0], -arrival[1]
            for hop in ctx.cache.misroute_candidates(
                node, dst, header.sig, arrival, not can_backtrack, False
            ):
                ch = hop[2]
                if ch in tried:
                    continue
                if hop[3] in on_path and not (
                    hop[1] == u_direction and hop[0] == u_dim
                ):
                    continue
                vc = free_adaptive(ch)
                if vc is not None:
                    return Decision(_RESERVE, vc, hop, k_now, True, True)

        if can_backtrack:
            return BACKTRACK

        # Stuck at the first data flit (or the source): retry in place,
        # then hand the message to the recovery mechanism.
        if message.retries < MAX_RETRIES:
            message.retries += 1
            message.retry_wait = ctx.cycle + RETRY_BACKOFF
            tried.clear()
            return WAIT
        return Decision(
            action=Action.ABORT,
            reason="TP detour construction failed after retries",
        )
