"""Memoized routing candidate sets, invalidated by fault epoch.

The routing functions of every protocol enumerate the same candidate
sets over and over: the profitable ports of ``(node, dst)`` filtered by
fault status and safety designation, the dimension-order escape hop,
and the Theorem 2 misroute ordering.  All of these depend only on the
immutable topology and on the fault state — *not* on virtual-channel
occupancy, which the selection functions check live — so a blocked
header re-evaluated for hundreds of cycles recomputes identical lists.

:class:`RouteCache` memoizes them per (router, destination, phase)
where "phase" is the safety filter / misroute context, and keys the
fault-dependent caches on :attr:`FaultState.epoch`: any fault,
unsafe-marking, or online-reconfiguration event bumps the epoch
(``FaultState._recompute_unsafe`` is the single funnel point) and the
next lookup drops every stale entry — a candidate tuple therefore
never mixes channels admitted under two different epochs.  The
dimension-order escape route is a pure function of the topology and is
cached forever, on the topology: every simulator of one ``(k, n)``
reads and fills the same table (:attr:`KAryNCube.escape_hops`).

Reconfiguration restrictions (:attr:`FaultState.channel_restricted`)
are filtered here alongside fault status, with two carve-outs.  First,
a restricted channel whose head node *is* the destination stays
eligible (the final delivery hop), so restricting every inbound
channel of a pocket node never makes that node unreachable.  Second,
restrictions are a *steering* mechanism, not a correctness one:
callers implementing a recovery search whose deliverability argument
needs every healthy channel (TP's conservative detour phase) pass
``honor_restrictions=False`` and see the unrestricted sets.  The
escape layer is exempt for the same reason — restrictions prune only
the optimistic adaptive/misroute sets, so the deadlock-free escape
network survives any restriction pattern (Duato-style separation).

Entries are tuples of ``(dim, direction, channel_id, next_node)`` — an
escape entry appends its dateline class — so protocol hot loops avoid
the ``channel_id``/``channel`` lookups, and a routing decision hands
the very entry it chose to the engine as its hop.

The adaptive and misroute sets depend on the destination only through
its *direction class* per dimension — no offset, plus, minus, or the
half-way tie of an even ring — so they are keyed on ``(node, class
signature, ...)``: at most ``4**n - 1`` entries per node instead of one
per destination.  The caller passes the signature: the routing header
carries it (:attr:`repro.core.header.Header.sig`, equal to
:meth:`KAryNCube.direction_signature` of its node and destination) and
updates one digit per hop, so a lookup derives nothing.  The one place
that reads ``dst`` itself is the final-hop exemption above, so while any
channel is restricted the key falls back to ``dst`` (decided once per
epoch, when the memos are empty anyway).  The escape hop reads only the
lowest dimension still to correct, its direction and the dateline class
(:meth:`KAryNCube.escape_class`): at most ``4n`` entries per node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.model import FaultState
from repro.network.channel import VCClass
from repro.network.topology import MINUS, PLUS, KAryNCube

#: One candidate hop: (dim, direction, channel_id, next_node).
Candidate = Tuple[int, int, int, int]
#: Escape hop: (dim, direction, channel_id, next_node, vclass) — a
#: Candidate followed by the dateline class of its deterministic VC.
Escape = Tuple[int, int, int, int, VCClass]


class RouteCache:
    """Epoch-checked memo of fault-filtered routing candidate sets."""

    __slots__ = ("topology", "faults", "_epoch", "_adaptive", "_misroute",
                 "_escape", "_key_on_dst")

    def __init__(self, topology: KAryNCube, faults: FaultState):
        self.topology = topology
        self.faults = faults
        #: (node, dst class, require_safe, honor_restrictions)
        #: -> Candidates.
        self._adaptive: Dict[tuple, Tuple[Candidate, ...]] = {}
        #: (node, dst class, arrival, allow_u_turn, honor_restrictions)
        #: -> tuple of Candidate.
        self._misroute: Dict[tuple, Tuple[Candidate, ...]] = {}
        #: escape class -> Escape; fault-independent, never cleared, and
        #: the topology's table: shared by every cache of this ``(k, n)``.
        self._escape: Dict[int, Escape] = topology.escape_hops
        self._new_epoch()

    def _new_epoch(self) -> None:
        """Drop every fault-dependent entry (the epoch moved)."""
        self._epoch = self.faults.epoch
        self._adaptive.clear()
        self._misroute.clear()
        self._key_on_dst = any(self.faults.channel_restricted)

    # ------------------------------------------------------------------
    def adaptive_candidates(
        self, node: int, dst: int, sig: int, require_safe: Optional[bool],
        honor_restrictions: bool = True,
    ) -> Tuple[Candidate, ...]:
        """Profitable ports passing the fault/safety filter, in order.

        ``sig`` is the direction class of ``dst`` seen from ``node``
        (:meth:`KAryNCube.direction_signature`).  ``require_safe`` is
        the phase key: ``True`` admits only safe channels, ``False``
        only unsafe ones, ``None`` ignores the designation.
        ``honor_restrictions=False`` skips the
        reconfiguration-restriction filter (recovery searches only).
        Virtual-channel occupancy is deliberately *not* part of the
        entry — callers check free VCs live.
        """
        if self.faults.epoch != self._epoch:
            self._new_epoch()
        key = (node, dst if self._key_on_dst else sig, require_safe,
               honor_restrictions)
        cached = self._adaptive.get(key)
        if cached is None:
            topo = self.topology
            faulty = self.faults.channel_faulty
            unsafe = self.faults.channel_unsafe
            restricted = self.faults.channel_restricted
            out: List[Candidate] = []
            for dim, direction in topo.profitable_ports(node, dst):
                ch = topo.channel_id(node, dim, direction)
                if faulty[ch]:
                    continue
                next_node = topo.channel(ch).dst
                if (honor_restrictions and restricted[ch]
                        and next_node != dst):
                    continue
                if require_safe is True and unsafe[ch]:
                    continue
                if require_safe is False and not unsafe[ch]:
                    continue
                out.append((dim, direction, ch, next_node))
            cached = tuple(out)
            self._adaptive[key] = cached
        return cached

    def misroute_candidates(
        self,
        node: int,
        dst: int,
        sig: int,
        arrival: Optional[Tuple[int, int]],
        allow_u_turn: bool,
        honor_restrictions: bool = True,
    ) -> Tuple[Candidate, ...]:
        """Healthy unprofitable ports in the Theorem 2 preference order.

        ``sig`` as for :meth:`adaptive_candidates`.  Premise (iii) of
        Theorem 2: when misrouting, prefer an output channel in the
        *same dimension* as the input channel.  The reverse of the
        arrival port (a U-turn) is appended last and only when
        ``allow_u_turn``.  ``honor_restrictions=False`` skips the
        reconfiguration-restriction filter.
        """
        if self.faults.epoch != self._epoch:
            self._new_epoch()
        key = (node, dst if self._key_on_dst else sig, arrival,
               allow_u_turn, honor_restrictions)
        cached = self._misroute.get(key)
        if cached is None:
            topo = self.topology
            faulty = self.faults.channel_faulty
            restricted = self.faults.channel_restricted
            reverse = None
            if arrival is not None:
                reverse = (arrival[0], -arrival[1])
            same_dim: List[Candidate] = []
            other: List[Candidate] = []
            for dim, direction in topo.ports(node):
                if topo.is_profitable(node, dst, dim, direction):
                    continue
                if (dim, direction) == reverse:
                    continue
                ch = topo.channel_id(node, dim, direction)
                if faulty[ch]:
                    continue
                next_node = topo.channel(ch).dst
                if (honor_restrictions and restricted[ch]
                        and next_node != dst):
                    continue
                entry = (dim, direction, ch, next_node)
                if arrival is not None and dim == arrival[0]:
                    same_dim.append(entry)
                else:
                    other.append(entry)
            out = same_dim + other
            if allow_u_turn and reverse is not None:
                ch = topo.channel_id(node, reverse[0], reverse[1])
                if not faulty[ch]:
                    rev_next = topo.channel(ch).dst
                    if (not honor_restrictions or not restricted[ch]
                            or rev_next == dst):
                        out.append(
                            (reverse[0], reverse[1], ch, rev_next)
                        )
            cached = tuple(out)
            self._misroute[key] = cached
        return cached

    def escape(self, node: int, dst: int) -> Optional[Escape]:
        """The dimension-order escape hop with its dateline class.

        A pure function of the topology (fault status of the escape
        channel is the caller's concern), so entries survive epoch
        bumps — and simulators.
        """
        key = self.topology.escape_class(node, dst)
        if key is None:
            return None
        entry = self._escape.get(key)
        if entry is None:
            topo = self.topology
            dim = (key >> 2) % topo.n
            direction = PLUS if key & 2 else MINUS
            ch = topo.channel_id(node, dim, direction)
            entry = self._escape[key] = (
                dim, direction, ch, topo.channel(ch).dst,
                VCClass.DETERMINISTIC_0 if key & 1
                else VCClass.DETERMINISTIC_1,
            )
        return entry
