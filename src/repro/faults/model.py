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
operation) and :class:`FaultState` supports incremental updates so the
simulator can inject dynamic faults mid-run.

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

from collections import deque
from typing import Iterable, List, Optional, Set, Tuple

from repro.network.topology import KAryNCube


class FaultState:
    """Mutable fault status of every node and channel in a network."""

    def __init__(self, topology: KAryNCube):
        self.topology = topology
        self.faulty_nodes: Set[int] = set()
        #: Failed physical links as unordered channel-id pairs; both
        #: directed channels of a link fail together.
        self.faulty_links: Set[Tuple[int, int]] = set()
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
        #: Channels whose fault status changed in the most recent
        #: update; the engine uses this to find interrupted messages.
        self.last_failed_channels: List[int] = []
        #: Monotonic fault epoch, bumped whenever the faulty/unsafe
        #: designations change (including placement rollbacks).  Route
        #: caches key their fault-dependent entries on this counter.
        self.epoch: int = 0

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """Fail a PE and its router: all incident links become faulty."""
        topo = self.topology
        if node in self.faulty_nodes:
            return
        self.faulty_nodes.add(node)
        newly_failed = []
        for dim, direction in topo.ports(node):
            out_ch = topo.channel_id(node, dim, direction)
            in_ch = topo.reverse_channel_id(out_ch)
            link = self._link_key(out_ch, in_ch)
            if link not in self.faulty_links:
                self.faulty_links.add(link)
            for ch in (out_ch, in_ch):
                if not self.channel_faulty[ch]:
                    self.channel_faulty[ch] = True
                    newly_failed.append(ch)
        self.last_failed_channels = newly_failed
        self._recompute_unsafe()

    def fail_link(self, channel_id: int) -> None:
        """Fail a physical link (both directed channels)."""
        rev = self.topology.reverse_channel_id(channel_id)
        link = self._link_key(channel_id, rev)
        if link in self.faulty_links:
            return
        self.faulty_links.add(link)
        newly_failed = []
        for ch in (channel_id, rev):
            if not self.channel_faulty[ch]:
                self.channel_faulty[ch] = True
                newly_failed.append(ch)
        self.last_failed_channels = newly_failed
        self._recompute_unsafe()

    @staticmethod
    def _link_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    # ------------------------------------------------------------------
    # Derived status
    # ------------------------------------------------------------------
    def _recompute_unsafe(self) -> None:
        """Re-derive unsafe marks from the current fault sets.

        A healthy channel ``u -> v`` is unsafe iff its head node ``v``
        is *at risk*: within :attr:`unsafe_radius` hops (over healthy
        channels) of a node incident to a faulty channel.  At the
        default radius 1 the at-risk set is exactly the paper's rule —
        nodes touching a failed component — and the marks are
        bit-identical to the pre-reconfiguration implementation.

        Every mutation of the fault sets funnels through here, so this
        is also the single point that advances the fault epoch.
        """
        self.epoch += 1
        topo = self.topology
        at_risk = [False] * topo.num_nodes
        frontier: List[int] = []
        for ch_id, faulty in enumerate(self.channel_faulty):
            if faulty:
                c = topo.channel(ch_id)
                for node in (c.src, c.dst):
                    if not at_risk[node]:
                        at_risk[node] = True
                        frontier.append(node)
        for _ in range(self.unsafe_radius - 1):
            if not frontier:
                break
            nxt: List[int] = []
            for node in frontier:
                for dim, direction in topo.ports(node):
                    ch = topo.channel_id(node, dim, direction)
                    if self.channel_faulty[ch]:
                        continue
                    v = topo.channel(ch).dst
                    if not at_risk[v]:
                        at_risk[v] = True
                        nxt.append(v)
            frontier = nxt
        for ch_id in range(topo.num_channels):
            if self.channel_faulty[ch_id]:
                self.channel_unsafe[ch_id] = False
            else:
                self.channel_unsafe[ch_id] = at_risk[topo.channel(ch_id).dst]

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
        node_links = set()
        for node in self.faulty_nodes:
            for dim, direction in self.topology.ports(node):
                ch = self.topology.channel_id(node, dim, direction)
                node_links.add(self._link_key(ch, self.topology.reverse_channel_id(ch)))
        independent_links = len(self.faulty_links - node_links)
        return len(self.faulty_nodes) + independent_links

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def healthy_neighbors(self, node: int) -> List[int]:
        """Neighbors reachable over healthy channels from ``node``."""
        topo = self.topology
        result = []
        for dim, direction in topo.ports(node):
            ch = topo.channel_id(node, dim, direction)
            if not self.channel_faulty[ch]:
                result.append(topo.channel(ch).dst)
        return result

    def reachable(self, src: int, dst: int) -> bool:
        """Whether ``dst`` is reachable from ``src`` over healthy links."""
        if self.is_node_faulty(src) or self.is_node_faulty(dst):
            return False
        if src == dst:
            return True
        seen = {src}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nxt in self.healthy_neighbors(node):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def healthy_nodes_connected(self) -> bool:
        """Whether all healthy nodes form one connected component."""
        healthy = [
            node
            for node in range(self.topology.num_nodes)
            if node not in self.faulty_nodes
        ]
        if not healthy:
            return True
        seen = {healthy[0]}
        frontier = deque([healthy[0]])
        while frontier:
            node = frontier.popleft()
            for nxt in self.healthy_neighbors(node):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(healthy)

    def shortest_healthy_distance(self, src: int, dst: int) -> Optional[int]:
        """BFS hop count over healthy channels, or ``None`` if cut off."""
        if self.is_node_faulty(src) or self.is_node_faulty(dst):
            return None
        if src == dst:
            return 0
        seen = {src: 0}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nxt in self.healthy_neighbors(node):
                if nxt in seen:
                    continue
                seen[nxt] = seen[node] + 1
                if nxt == dst:
                    return seen[nxt]
                frontier.append(nxt)
        return None
