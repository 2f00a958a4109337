"""Fault model: failed nodes, failed links, unsafe channels (Section 2.4).

The detection mechanisms assumed by the paper identify two fault types:

* a processing element together with its router fails — every physical
  link incident on the node is marked faulty; or
* a communication channel (physical link) fails — every virtual channel
  on it, in both directions, is marked faulty.

In addition, healthy physical channels incident on PEs *adjacent* to a
failed component are marked **unsafe** (Figure 3): routing across them
may lead to an encounter with a failed component.  The Two-Phase
protocol keys its optimistic-to-conservative flow-control switch off
this designation.

Failures are permanent (static at power-on, or dynamic during
operation): :class:`FaultState` can fail a component but never restore
one, and supports incremental updates so the simulator can inject
dynamic faults mid-run.  Every connectivity, distance and at-risk
question is one breadth-first search over healthy channels,
:meth:`FaultState.hops`.  A failed node neither sends nor receives, so
the nodes that carry traffic are :attr:`FaultState.healthy_nodes`, the
one list the traffic generator and the engine's injection phase read.

Beyond the paper's per-message reaction, the online reconfiguration
subsystem (:mod:`repro.reconfig`) can push a *routing restriction
epoch* through this class: a set of **restricted** channels (healthy,
but withdrawn from adaptive/misroute candidate sets except for the
final delivery hop) and a widened **unsafe radius** (the at-risk ball
around faulty components grows from the paper's 1-hop adjacency to an
r-hop BFS ball, switching TP to its conservative phase earlier around
fault pockets).  Both are committed atomically by :meth:`reconfigure`
and funnel through :meth:`_recompute_unsafe`, so route caches see
exactly one epoch bump per reconfiguration.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Set

from repro.network.topology import KAryNCube


class FaultState:
    """Mutable fault status of every node and channel in a network.

    Only this class writes its fields; a failed component stays failed.
    """

    def __init__(self, topology: KAryNCube):
        self.topology = topology
        self.faulty_nodes: Set[int] = set()
        #: Healthy node ids, ascending: the nodes that send and receive
        #: traffic, one injection trial slot each per cycle.
        self.healthy_nodes: List[int] = list(range(topology.num_nodes))
        #: Failed channels; both directed channels of a link fail
        #: together, so this is also the record of failed links.
        self.channel_faulty: List[bool] = [False] * topology.num_channels
        self.channel_unsafe: List[bool] = [False] * topology.num_channels
        #: Healthy channels withdrawn from adaptive/misroute candidate
        #: sets by an online reconfiguration (:mod:`repro.reconfig`).
        #: The dimension-order escape layer and the final delivery hop
        #: ignore restrictions, so deliverability is never reduced.
        self.channel_restricted: List[bool] = [False] * topology.num_channels
        #: Radius of the at-risk ball around faulty components; 1 is
        #: the paper's "adjacent PE" rule (Figure 3), larger values are
        #: committed by :meth:`reconfigure`.
        self.unsafe_radius: int = 1
        #: Committed reconfigurations (restriction epochs) so far.
        self.restriction_epoch: int = 0
        #: Channels the most recent fault update newly failed (empty
        #: when it failed nothing new); the engine uses this to find
        #: interrupted messages.
        self.last_failed_channels: List[int] = []
        #: Monotonic fault epoch, bumped whenever the faulty/unsafe
        #: designations change.  Route caches key their fault-dependent
        #: entries on this counter.
        self.epoch: int = 0

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """Fail a PE and its router: all incident links become faulty."""
        topo = self.topology
        if node in self.faulty_nodes:
            self.last_failed_channels = []
            return
        self.faulty_nodes.add(node)
        self.healthy_nodes.remove(node)
        newly_failed = []
        for dim, direction in topo.ports(node):
            out_ch = topo.channel_id(node, dim, direction)
            for ch in (out_ch, topo.reverse_channel_id(out_ch)):
                if not self.channel_faulty[ch]:
                    self.channel_faulty[ch] = True
                    newly_failed.append(ch)
        self.last_failed_channels = newly_failed
        self._recompute_unsafe()

    def fail_link(self, channel_id: int) -> None:
        """Fail a physical link (both directed channels)."""
        if self.channel_faulty[channel_id]:
            self.last_failed_channels = []
            return
        rev = self.topology.reverse_channel_id(channel_id)
        self.channel_faulty[channel_id] = self.channel_faulty[rev] = True
        self.last_failed_channels = [channel_id, rev]
        self._recompute_unsafe()

    # ------------------------------------------------------------------
    # Derived status
    # ------------------------------------------------------------------
    def _recompute_unsafe(self) -> None:
        """Re-derive unsafe marks from the current fault sets.

        A healthy channel ``u -> v`` is unsafe iff its head node ``v``
        is *at risk*: within ``unsafe_radius - 1`` healthy hops of a
        node incident to a faulty channel.  At the default radius 1 the
        at-risk set is exactly the paper's rule — nodes touching a
        failed component.

        Every mutation of the fault sets funnels through here, so this
        is also the single point that advances the fault epoch.
        """
        self.epoch += 1
        topo = self.topology
        touching = set()
        for ch_id, faulty in enumerate(self.channel_faulty):
            if faulty:
                c = topo.channel(ch_id)
                touching.add(c.src)
                touching.add(c.dst)
        at_risk = self.hops(touching, within=self.unsafe_radius - 1)
        for ch_id in range(topo.num_channels):
            if self.channel_faulty[ch_id]:
                self.channel_unsafe[ch_id] = False
            else:
                self.channel_unsafe[ch_id] = topo.channel(ch_id).dst in at_risk

    def reconfigure(
        self,
        restricted_channels: Iterable[int],
        unsafe_radius: Optional[int] = None,
    ) -> None:
        """Atomically commit a new routing-restriction epoch.

        Replaces the restricted-channel set (faulty channels are never
        marked restricted — faulty already dominates in every consumer)
        and optionally the unsafe radius, then re-derives the unsafe
        marks.  Exactly one epoch bump, so
        :class:`~repro.routing.cache.RouteCache` invalidates once and
        the next candidate lookup sees the fully committed epoch —
        callers (the reconfiguration controller) must only invoke this
        when no message is mid-route, per the drain protocol.
        """
        if unsafe_radius is not None:
            if unsafe_radius < 1:
                raise ValueError("unsafe_radius must be >= 1")
            self.unsafe_radius = unsafe_radius
        restricted = [False] * self.topology.num_channels
        for ch in restricted_channels:
            if not self.channel_faulty[ch]:
                restricted[ch] = True
        self.channel_restricted = restricted
        self.restriction_epoch += 1
        self._recompute_unsafe()

    def is_node_faulty(self, node: int) -> bool:
        return node in self.faulty_nodes

    @property
    def num_faults(self) -> int:
        """Total failed components (nodes + independently failed links)."""
        topo = self.topology
        failed = self.faulty_nodes
        links = 0
        for ch, faulty in enumerate(self.channel_faulty):
            if faulty and ch < topo.reverse_channel_id(ch):
                c = topo.channel(ch)
                links += c.src not in failed and c.dst not in failed
        return len(failed) + links

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def hops(self, sources: Iterable[int], avoid: Collection[int] = (),
             within: Optional[int] = None) -> Dict[int, int]:
        """Hop count over healthy channels from the nearest of
        ``sources`` to every node it reaches, never entering a node in
        ``avoid`` and going no further than ``within`` hops."""
        topo = self.topology
        dist = dict.fromkeys(sources, 0)
        frontier = list(dist)
        depth = 0
        while frontier and (within is None or depth < within):
            depth += 1
            nxt = []
            for node in frontier:
                for dim, direction in topo.ports(node):
                    ch = topo.channel_id(node, dim, direction)
                    if self.channel_faulty[ch]:
                        continue
                    v = topo.channel(ch).dst
                    if v not in dist and v not in avoid:
                        dist[v] = depth
                        nxt.append(v)
            frontier = nxt
        return dist

    def healthy_nodes_connected(self, lost: Collection[int] = ()) -> bool:
        """Whether the healthy nodes not in ``lost`` form one connected
        component of the healthy network less ``lost``."""
        healthy = [node for node in self.healthy_nodes if node not in lost]
        if not healthy:
            return True
        return len(self.hops(healthy[:1], avoid=lost)) == len(healthy)

    def shortest_healthy_distance(self, src: int, dst: int) -> Optional[int]:
        """BFS hop count over healthy channels, or ``None`` if cut off."""
        if self.is_node_faulty(src) or self.is_node_faulty(dst):
            return None
        return self.hops((src,)).get(dst)
