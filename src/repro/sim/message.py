"""Messages, their pipeline state, and control flits.

A message is broken into flits (Section 2.1): one routing header plus
``length`` data flits (the last data flit acts as the tail).  Because a
data virtual channel carries at most one message at a time (wormhole
semantics), the simulator tracks data-flit *occupancy counts* per
reserved channel instead of materializing every data flit — this is
exact for timing and keeps pure-Python runs tractable.  Control flits
(headers in decoupled mode, positive/negative acknowledgments, path
acknowledgments, detour-resume tokens, kill flits, and tail
acknowledgments) are explicit :class:`ControlFlit` tokens, because they
compete for physical-channel bandwidth.

Path indexing convention used throughout the engine::

    routers:  R_0 (source) -- R_1 -- ... -- R_h
    links:    path[i] connects R_i -> R_(i+1)
    buffered[i] = data flits currently buffered at R_(i+1)
                  (the downstream end of path[i])
    acks_at[j] = net positive acknowledgments received at router R_j
    k_at[i]    = scouting distance programmed into path[i]'s VC
    held[i]    = path[i] reserved while the header was in detour mode
                 (data gate closed until a resume/path token clears it)
    released[i] = path[i]'s virtual channel has been given back

Release invariant: the data phase frees ``path[p]`` in the cycle the
tail flit crosses it, so outside teardown (and unless the path is held
for a tail acknowledgment) ``released[p]`` holds exactly when the tail
has passed ``p`` — ``at_source == 0 and p <= tail_idx``.  No per-link
flit counter exists; the tail position *is* the record of which links
have carried the whole message.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Set, Tuple

from repro.core.header import Header
from repro.network.channel import VirtualChannel


class MessageStatus(enum.Enum):
    #: Waiting in the source's injection queue.
    QUEUED = 0
    #: Header launched; path setup and/or data transfer in progress.
    ACTIVE = 1
    #: All data flits consumed by the destination PE (and, in reliable
    #: mode, the tail acknowledgment received by the source).
    DELIVERED = 2
    #: Given up after exhausting retries, or destination unreachable.
    DROPPED = 3
    #: Interrupted by a dynamic fault and torn down without retransmit.
    KILLED = 4


class ControlKind(enum.Enum):
    """Kinds of control flits carried by the virtual control channels."""

    HEADER = "header"          # routing header moving forward
    HEADER_BACK = "header_bt"  # routing header backtracking one hop
    ACK_POS = "ack+"           # positive scouting acknowledgment
    ACK_NEG = "ack-"           # negative acknowledgment (after backtrack)
    PATH_ACK = "path_ack"      # header-reached-destination acknowledgment
    RESUME = "resume"          # detour complete: re-open data gates
    KILL_UP = "kill_up"        # teardown toward the source
    KILL_DOWN = "kill_down"    # teardown toward the destination
    TAIL_ACK = "tail_ack"      # reliable-delivery acknowledgment


class ControlFlit:
    """One control flit in flight on the multiplexed control channels.

    ``position`` is the router path-index the token is currently
    *heading to*; arrival processing happens when the token wins link
    arbitration and crosses.  ``ready_cycle`` enforces one hop per
    cycle.  A token that propagates hop by hop (acknowledgments, path
    and resume tokens, kills, tail acknowledgments) is the same object
    all the way: each arrival moves ``position`` and ``ready_cycle`` on
    and queues it again, so one flit is built per chain, not per hop.
    """

    __slots__ = ("kind", "message", "position", "ready_cycle")

    def __init__(self, kind: ControlKind, message: "Message", position: int,
                 ready_cycle: int):
        self.kind = kind
        self.message = message
        self.position = position
        self.ready_cycle = ready_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlFlit({self.kind.value}, msg={self.message.msg_id}, "
            f"pos={self.position})"
        )


class HeaderPhase(enum.Enum):
    """Where the routing header currently is."""

    #: At a router, awaiting a routing decision (RCU pending set).
    PENDING = 0
    #: In flight on a control channel (decoupled-header mode only).
    IN_FLIGHT = 1
    #: Consumed by the destination router.
    DELIVERED = 2
    #: Destroyed by a teardown / kill.
    GONE = 3


class TPMode(enum.Enum):
    """Two-Phase routing mode (Figure 6)."""

    DP = 0      # optimistic phase: Duato's Protocol restrictions
    DETOUR = 1  # conservative phase: unrestricted search with misroutes


class Message:
    """One message and all of its pipeline / routing state."""

    __slots__ = (
        "msg_id", "src", "dst", "length", "distance", "inline_header",
        "created_cycle", "injected_cycle", "delivered_cycle",
        "status", "drop_reason",
        "header", "header_phase", "header_router",
        "tp_mode", "needs_path_ack", "path_established",
        "path", "path_nodes", "k_at", "held", "released", "link_misroute",
        "acks_at", "tried", "arrival_dims",
        "buffered", "at_source", "ejected", "killed_flits",
        "head_link", "tail_idx", "total_flits", "hop_cap",
        "detour_stack", "detour_count", "backtrack_count", "backtrack_lock",
        "misroute_total", "hops_taken", "retries", "retry_wait",
        "wait_cycles", "consecutive_waits", "original_id", "retransmits",
        "tail_acked", "teardown", "teardown_reason",
        "parked", "park_node", "park_ver", "park_epoch", "wake_at",
    )

    def __init__(self, msg_id: int, src: int, dst: int, length: int,
                 offsets: Tuple[int, ...], sig: int, created_cycle: int,
                 inline_header: bool):
        """``offsets`` and ``sig`` describe ``dst`` seen from ``src``:
        :meth:`KAryNCube.offsets` and
        :meth:`KAryNCube.direction_signature` (the header carries and
        updates both)."""
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        #: Number of data flits (the paper's L); the routing header is
        #: one additional flit.
        self.length = length
        #: Minimal hop count from ``src`` to ``dst`` (offsets are
        #: shortest): the hop cap's base and the record's distance.
        self.distance = sum(map(abs, offsets))
        #: True when the header travels in-band as the first flit on
        #: data channels (pure wormhole, e.g. the DP baseline); False
        #: when it travels on the control channels (PCS/SR/TP).
        self.inline_header = inline_header

        self.created_cycle = created_cycle
        self.injected_cycle: Optional[int] = None
        self.delivered_cycle: Optional[int] = None
        self.status = MessageStatus.QUEUED
        self.drop_reason: Optional[str] = None

        self.header = Header(offsets=list(offsets), sig=sig)
        self.header_phase = HeaderPhase.PENDING
        #: Path index of the router where the header is (or is heading).
        self.header_router = 0
        self.tp_mode = TPMode.DP
        self.needs_path_ack = False
        self.path_established = False

        # Reserved path and per-link / per-router state (see module
        # docstring for the indexing convention).
        self.path: List[VirtualChannel] = []
        self.path_nodes: List[int] = [src]
        self.k_at: List[int] = []
        self.held: List[bool] = []
        self.released: List[bool] = []
        #: Whether each path link was taken as a misroute (moved the
        #: header away from the destination); backtracking over such a
        #: link restores the misroute budget (Theorem 2).
        self.link_misroute: List[bool] = []
        self.acks_at: List[int] = [0]
        #: Output channels already searched from each visited router
        #: (the RCU history store, kept per message).
        self.tried: List[Set[int]] = [set()]
        #: (dim, direction) of the hop that *entered* each router on the
        #: path (None for the source); used by the Theorem 2 selection
        #: rule "misroute in the same dimension as the input channel".
        self.arrival_dims: List[Optional[Tuple[int, int]]] = [None]

        # Data pipeline occupancy.
        self.buffered: List[int] = []
        #: Flits that traverse data channels (header included if inline).
        self.total_flits = length + (1 if inline_header else 0)
        #: Flits not yet injected; the in-band header counts as a flit.
        self.at_source = self.total_flits
        self.ejected = 0
        self.killed_flits = 0
        #: Highest path-link index the first data flit has crossed.
        self.head_link = -1
        #: Path-link index of the buffer holding the tail flit once the
        #: source is empty (0 before that, ``len(path)`` once drained):
        #: the data scan starts here and links up to here are released.
        self.tail_idx = 0

        # Routing statistics / protocol scratch state.
        self.detour_stack: List[Tuple[int, int]] = []
        self.detour_count = 0
        self.backtrack_count = 0
        #: Path-link index the header is currently backtracking over
        #: (-1 when none).  The data gate of this link stays closed no
        #: matter what acknowledgments arrive, so the first data flit
        #: can never race onto a link being released.
        self.backtrack_lock = -1
        self.misroute_total = 0
        self.hops_taken = 0
        #: Livelock hop budget (engine-assigned; depends on ``distance``
        #: and the config's cap parameters, both constant for the
        #: message's lifetime).
        self.hop_cap = 0
        self.retries = 0
        #: Cycle until which a retry is deferred (simple backoff).
        self.retry_wait = 0
        self.wait_cycles = 0
        #: Consecutive cycles the header has been blocked; reset on any
        #: forward/backward progress.  Feeds the recovery escape hatch.
        self.consecutive_waits = 0
        #: For retransmitted copies: id of the original message.
        self.original_id = msg_id
        self.retransmits = 0
        self.tail_acked = False
        #: Path teardown in progress (kill flits traveling): data
        #: movement is frozen until the kill reaches the source.
        self.teardown = False
        #: Why the teardown started: "fault" (dynamic failure hit the
        #: path) or "abort" (routing gave up) — decides whether the
        #: source retransmits, retries, or drops.
        self.teardown_reason: Optional[str] = None

        # Scheduling state (engine-owned; see DESIGN.md §11 — the
        # reference engine of the test suite ignores all of it).  A
        # *parked* header skips its routing decision until one
        # of its wake conditions can change the outcome: a virtual
        # channel released at its router (``park_ver`` falls behind the
        # node's release version), a fault-epoch change, or the timed
        # retry cycle ``wake_at``.
        self.parked = False
        self.park_node = 0
        self.park_ver = 0
        self.park_epoch = 0
        self.wake_at = 0

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def injected_flits(self) -> int:
        return self.total_flits - self.at_source

    def current_node(self) -> int:
        """Network node id where the header currently is."""
        return self.path_nodes[self.header_router]

    def is_terminal(self) -> bool:
        return self.status in (
            MessageStatus.DELIVERED,
            MessageStatus.DROPPED,
            MessageStatus.KILLED,
        )

    def flit_conservation_ok(self) -> bool:
        """Invariant: every injected flit is buffered, ejected, or killed."""
        return self.injected_flits == (
            sum(self.buffered) + self.ejected + self.killed_flits
        )

    # ------------------------------------------------------------------
    # Path mutation (used by the engine)
    # ------------------------------------------------------------------
    def extend_path(self, vc: VirtualChannel, next_node: int, k: int,
                    hold: bool, dim: int, direction: int,
                    is_misroute: bool = False) -> None:
        """Record a newly reserved virtual channel at the header's end."""
        self.path.append(vc)
        self.path_nodes.append(next_node)
        self.k_at.append(k)
        self.held.append(hold)
        self.released.append(False)
        self.link_misroute.append(is_misroute)
        self.buffered.append(0)
        self.acks_at.append(0)
        self.tried.append(set())
        self.arrival_dims.append((dim, direction))

    def pop_path(self) -> VirtualChannel:
        """Drop the last path link (header backtracked over it)."""
        vc = self.path.pop()
        self.path_nodes.pop()
        self.k_at.pop()
        self.held.pop()
        self.released.pop()
        self.link_misroute.pop()
        if self.buffered.pop() != 0:
            raise RuntimeError(
                f"message {self.msg_id}: backtracked over a link holding "
                "data flits"
            )
        self.acks_at.pop()
        self.tried.pop()
        self.arrival_dims.pop()
        return vc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.msg_id}, {self.src}->{self.dst}, "
            f"status={self.status.name}, hdr@{self.header_router}, "
            f"links={len(self.path)})"
        )
