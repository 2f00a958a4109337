"""Restriction planning for online reconfiguration (DESIGN.md §10).

Given the accumulated fault set, :func:`compute_plan` derives the
routing-restriction epoch the controller commits through
:meth:`FaultState.reconfigure`:

* a **widened unsafe radius** — the at-risk ball around faulty
  components grows from the paper's 1-hop adjacency to the
  :data:`UNSAFE_RADIUS`-hop BFS ball, so TP headers switch to the
  conservative (scouting/detour) flow control *before* they are
  already inside a fault pocket; and
* **dead-end pruning** — inbound channels of healthy nodes left with
  at most one usable outgoing link are restricted, iterated to a
  fixpoint, so adaptive and misroute candidates stop steering traffic
  into pockets it can only back out of.  Pocket nodes stay deliverable
  (the route cache exempts the final hop from restrictions) and stay
  able to inject (their own outgoing channels are never restricted).

The plan is a pure, deterministic function of the fault state —
identical inputs yield identical restriction sets on every run and
under the steady-state fast-forward.  As a safety valve, a plan whose
restrictions would split the non-pocket healthy nodes into more than
one component (restrictions prune only adaptive candidates, but a
split would still force every crossing onto the escape layer) falls
back to the radius-only plan with no pruning.  That check is one
:meth:`FaultState.healthy_nodes_connected` search with the pocket
nodes lost: every restricted channel enters a pruned node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.faults.model import FaultState

#: Unsafe-ball radius every plan commits: the lever that switches TP to
#: its conservative phase one hop earlier around pockets.
UNSAFE_RADIUS = 2


@dataclass(frozen=True)
class RestrictionPlan:
    """One deterministic restriction epoch, ready to commit."""

    #: Fault epoch the plan was derived from.
    epoch_basis: int
    #: Unsafe-ball radius to commit.
    unsafe_radius: int
    #: Channel ids to mark restricted (sorted, healthy at plan time).
    restricted_channels: Tuple[int, ...]
    #: Healthy nodes classified as pocket/dead-end interiors.
    pruned_nodes: Tuple[int, ...]
    #: Whether the pruned plan kept the non-pocket healthy nodes in one
    #: component (False = pruning was discarded, radius-only plan).
    connected: bool


def _usable_out_degree(
    faults: FaultState, node: int, restricted: Set[int]
) -> int:
    topo = faults.topology
    degree = 0
    for dim, direction in topo.ports(node):
        ch = topo.channel_id(node, dim, direction)
        if faults.channel_faulty[ch] or ch in restricted:
            continue
        degree += 1
    return degree


def _prune_dead_ends(
    faults: FaultState,
) -> Tuple[Set[int], List[int]]:
    """Iteratively restrict inbound channels of near-dead-end nodes.

    A healthy node whose usable (healthy, unrestricted) outgoing
    channels number at most one is a pocket interior: any adaptive hop
    into it must either terminate there or come straight back.  Its
    healthy inbound channels are restricted and the scan repeats
    (ascending node order, to a fixpoint) because each restriction
    lowers a neighbor's usable out-degree and can cascade along a
    corridor.  Outgoing channels of pruned nodes are left alone so the
    node's own injected traffic still has a way out.
    """
    topo = faults.topology
    restricted: Set[int] = set()
    pruned: List[int] = []
    pruned_set: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for node in range(topo.num_nodes):
            if node in pruned_set or faults.is_node_faulty(node):
                continue
            if _usable_out_degree(faults, node, restricted) > 1:
                continue
            pruned.append(node)
            pruned_set.add(node)
            changed = True
            for dim, direction in topo.ports(node):
                out_ch = topo.channel_id(node, dim, direction)
                in_ch = topo.reverse_channel_id(out_ch)
                if not faults.channel_faulty[in_ch]:
                    restricted.add(in_ch)
    return restricted, pruned


def compute_plan(faults: FaultState) -> RestrictionPlan:
    """Derive the restriction epoch for the current fault set."""
    connected = True
    restricted, pruned = _prune_dead_ends(faults)
    if restricted:
        # A plan pruning every healthy node steers nothing and counts
        # as not connected.
        lost = set(pruned)
        connected = (
            len(lost) + len(faults.faulty_nodes) < faults.topology.num_nodes
            and faults.healthy_nodes_connected(lost=lost)
        )
        if not connected:
            restricted = set()
            pruned = []
    return RestrictionPlan(
        epoch_basis=faults.epoch,
        unsafe_radius=UNSAFE_RADIUS,
        restricted_channels=tuple(sorted(restricted)),
        pruned_nodes=tuple(pruned),
        connected=connected,
    )
