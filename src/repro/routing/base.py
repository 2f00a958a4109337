"""Routing-protocol interface shared by DP, MB-m, and Two-Phase routing.

Each cycle, the engine presents every pending routing header to its
protocol's :meth:`RoutingProtocol.decide`, which returns one of:

* ``RESERVE`` — take the given virtual channel (the routing function's
  candidate set filtered through the selection function); the engine
  reserves it, programs its scouting distance, and forwards the header;
* ``WAIT`` — block in place and re-evaluate next cycle (wormhole
  blocking on a busy deterministic channel, or a source-side retry
  backoff);
* ``BACKTRACK`` — release the most recent channel and step the header
  one hop toward the source (only protocols with decoupled headers);
* ``ABORT`` — give up on the current attempt; the engine tears the
  path down and either requeues the message at the source or drops it.

Protocols are stateless across messages: every per-message scratch
value (history store contents, detour stack, mode bits) lives on the
:class:`~repro.sim.message.Message`.
"""

from __future__ import annotations

import enum
from typing import Optional, Protocol

from repro.core.flow_control import FlowControlConfig
from repro.faults.model import FaultState
from repro.network.channel import ChannelBank, VirtualChannel
from repro.network.topology import KAryNCube
from repro.routing.cache import RouteCache
from repro.sim.message import Message


class Action(enum.Enum):
    RESERVE = 0
    WAIT = 1
    BACKTRACK = 2
    ABORT = 3


class Decision:
    """One routing verdict.

    A RESERVE carries the chosen virtual channel and the hop it takes:
    the :class:`~repro.routing.cache.RouteCache` entry the protocol
    picked — ``(dim, direction, channel_id, next_node)``, an escape entry
    with its dateline class appended — handed on as is, so the engine
    re-derives neither the port nor the node beyond it.
    """

    __slots__ = ("action", "vc", "hop", "k", "hold", "is_misroute",
                 "reason")

    def __init__(self, action: Action, vc: Optional[VirtualChannel] = None,
                 hop: Optional[tuple] = None, k: int = 0, hold: bool = False,
                 is_misroute: bool = False, reason: str = ""):
        self.action = action
        #: For RESERVE: the chosen virtual channel.
        self.vc = vc
        #: For RESERVE: the candidate hop taken (see the class docstring).
        self.hop = hop
        #: For RESERVE: scouting distance K to program into the channel.
        self.k = k
        #: For RESERVE: reserve with the data gate held closed (channels
        #: accepted during detour construction are all-or-nothing).
        self.hold = hold
        #: For RESERVE: the hop moves the header away from its destination.
        self.is_misroute = is_misroute
        #: For ABORT: human-readable reason recorded on the message.
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Decision({self.action.name}, hop={self.hop}, k={self.k}, "
            f"hold={self.hold}, misroute={self.is_misroute}, "
            f"reason={self.reason!r})"
        )


#: The verdicts that carry nothing, shared by every protocol.
WAIT = Decision(action=Action.WAIT)
BACKTRACK = Decision(action=Action.BACKTRACK)


class RoutingContext:
    """Read-only view of the network handed to routing decisions."""

    __slots__ = ("topology", "faults", "channels", "cycle", "cache")

    def __init__(self, topology: KAryNCube, faults: FaultState,
                 channels: ChannelBank, cycle: int = 0,
                 cache: Optional[RouteCache] = None):
        self.topology = topology
        self.faults = faults
        self.channels = channels
        self.cycle = cycle
        #: Fault-epoch-keyed memo of routing candidate sets shared by
        #: every decision made against this context.
        self.cache = cache if cache is not None else RouteCache(
            topology, faults
        )


class RoutingProtocol(Protocol):
    """Interface implemented by every routing protocol."""

    #: Whether the header travels in-band on data channels (pure
    #: wormhole) instead of on the control channels.
    inline_header: bool
    #: Flow-control programming used by this protocol.
    flow_control: FlowControlConfig

    def decide(self, ctx: RoutingContext, message: Message) -> Decision:
        """Routing function + selection function for one pending header."""
        ...
