"""Deadlock diagnosis and victim selection (the resilience layer).

When the engine's progress watchdog expires, this module reconstructs
the *message wait-for graph* from live engine state: a blocked routing
header at router ``R`` wants a virtual channel on one of the profitable
output channels of ``R``; every busy virtual channel on a wanted output
contributes a ``waiter -> holder`` edge.  Strongly connected components
of that graph are the blocking cycles — the classic circular-wait
signature of a routing deadlock.

Diagnosis feeds two consumers:

* **strict mode** (``ResilienceConfig(max_deadlock_recoveries=0)``)
  renders the graph and cycles into the
  :class:`DeadlockError`
  message, so a crashed run explains *which* messages blocked each
  other instead of only saying "no progress";
* **recovery mode** (the default) selects a victim message from the
  cycle and hands it to the engine's existing kill-flit teardown path
  (Section 2.4), which frees the victim's virtual channels and lets the
  rest of the network resume — the victim retries from its source under
  the usual ``RecoveryConfig`` bounds.  This mirrors deadlock-recovery
  routers (e.g. DBR-style victim ejection): detection is the expensive
  part and it only runs after the watchdog, never on the fast path.

The edge construction deliberately *over-approximates*: it does not
re-run the routing protocol to learn exactly which virtual channel a
header would accept, it assumes any busy VC on a profitable (or, in
detour mode, any healthy) output could be the one being waited on.
Over-approximation can only add edges, so a genuine circular wait is
always contained in some reported cycle; victim ejection therefore
never misses a real deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.sim.message import HeaderPhase, Message, MessageStatus

#: Deadlock-recovery ejections of one original message (counted across
#: its retry clones) after which it is no longer an eligible victim;
#: when *only* capped candidates remain the run fails hard instead of
#: livelocking recovery on the same pathological cycle.  The source
#: retry budget (``control.MAX_SOURCE_RETRIES``) keeps ejections per
#: origin well below it.
MAX_VICTIM_EJECTIONS = 16


class DeadlockError(RuntimeError):
    """Raised when the network makes no progress for the watchdog window.

    Carries the rendered wait-for-graph diagnosis
    (:class:`DeadlockDiagnosis`): raised when victim ejection is
    impossible or its budget is exhausted — at once with
    ``max_deadlock_recoveries=0``.
    """

    def __init__(self, message: str, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis


@dataclass(frozen=True)
class WaitEdge:
    """One ``waiter -> holder`` dependency in the wait-for graph."""

    waiter: int  #: blocked message id
    holder: int  #: message id owning the wanted virtual channel
    node: int    #: node where the waiter's header is blocked
    channel_id: int  #: wanted physical channel
    vc_index: int    #: busy virtual channel on that physical channel

    def describe(self) -> str:
        return (
            f"msg {self.waiter} @node {self.node} waits on "
            f"ch {self.channel_id}.vc{self.vc_index} held by "
            f"msg {self.holder}"
        )


@dataclass
class DeadlockDiagnosis:
    """Rendered snapshot of who blocks whom at watchdog expiry."""

    cycle: int
    active_messages: int
    blocked: List[int] = field(default_factory=list)
    edges: List[WaitEdge] = field(default_factory=list)
    #: Message-id cycles (each a closed walk, first element repeated
    #: implicitly) extracted from the wait-for graph.
    cycles: List[List[int]] = field(default_factory=list)

    def render(self) -> str:
        """Multi-line human-readable wait-for report."""
        lines = [
            f"deadlock watchdog expired at cycle {self.cycle}: "
            f"{self.active_messages} active message(s), "
            f"{len(self.blocked)} blocked header(s), "
            f"{len(self.edges)} wait-for edge(s), "
            f"{len(self.cycles)} blocking cycle(s)"
        ]
        by_waiter: Dict[int, List[WaitEdge]] = {}
        for edge in self.edges:
            by_waiter.setdefault(edge.waiter, []).append(edge)
        for i, cyc in enumerate(self.cycles, start=1):
            chain = " -> ".join(str(m) for m in cyc + cyc[:1])
            lines.append(f"  cycle {i}: {chain}")
            members = set(cyc)
            for mid in cyc:
                for edge in by_waiter.get(mid, []):
                    if edge.holder in members:
                        lines.append(f"    {edge.describe()}")
        if not self.cycles:
            if self.edges:
                lines.append("  no closed cycle; acyclic wait chains:")
                for edge in self.edges:
                    lines.append(f"    {edge.describe()}")
            else:
                lines.append(
                    "  no wait-for edges: blockage is not a routing "
                    "circular wait (lost token or frozen message)"
                )
        return "\n".join(lines)


def _blocked_messages(engine) -> List[Message]:
    """Active messages whose routing header is stalled at a router."""
    return [
        msg
        for msg in engine.active.values()
        if msg.status is MessageStatus.ACTIVE
        and not msg.teardown
        and msg.header_phase is HeaderPhase.PENDING
    ]


def _wanted_channels(engine, msg: Message) -> List[int]:
    """Healthy output channels the blocked header could want next.

    Profitable ports when routing minimally; every healthy port when
    the header is in detour/misroute territory (TP conservative phase)
    or no profitable port survives the fault set.
    """
    topo = engine.topology
    node = msg.current_node()
    profitable = [
        topo.channel_id(node, dim, direction)
        for dim, direction in topo.profitable_ports(node, msg.dst)
    ]
    healthy = [
        ch for ch in profitable if not engine.faults.channel_faulty[ch]
    ]
    if healthy and not msg.header.detour:
        return healthy
    return [
        topo.channel_id(node, dim, direction)
        for dim, direction in topo.ports(node)
        if not engine.faults.channel_faulty[
            topo.channel_id(node, dim, direction)
        ]
    ]


def diagnose(engine) -> DeadlockDiagnosis:
    """Build the wait-for graph and its cycles from live engine state."""
    blocked = _blocked_messages(engine)
    edges: List[WaitEdge] = []
    for msg in blocked:
        node = msg.current_node()
        for ch in _wanted_channels(engine, msg):
            for vc in engine.channels.vcs(ch):
                if vc.owner is None or vc.owner == msg.msg_id:
                    continue
                edges.append(
                    WaitEdge(
                        waiter=msg.msg_id,
                        holder=vc.owner,
                        node=node,
                        channel_id=ch,
                        vc_index=vc.index,
                    )
                )
    return DeadlockDiagnosis(
        cycle=engine.cycle,
        active_messages=len(engine.active),
        blocked=[m.msg_id for m in blocked],
        edges=edges,
        cycles=_find_cycles(edges),
    )


def _find_cycles(edges: List[WaitEdge]) -> List[List[int]]:
    """Cycles in the wait-for graph, one per non-trivial SCC."""
    adjacency: Dict[int, List[int]] = {}
    for edge in edges:
        adjacency.setdefault(edge.waiter, []).append(edge.holder)
        adjacency.setdefault(edge.holder, [])
    sccs = _tarjan_sccs(adjacency)
    cycles = []
    for scc in sccs:
        if len(scc) < 2:
            continue
        walk = _cycle_walk(adjacency, scc)
        cycles.append(walk if walk is not None else sorted(scc))
    return cycles


def _tarjan_sccs(adjacency: Dict[int, List[int]]) -> List[Set[int]]:
    """Iterative Tarjan strongly-connected components."""
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[Set[int]] = []
    counter = [0]

    for root in adjacency:
        if root in index:
            continue
        work = [(root, iter(adjacency[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: Set[int] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


def _cycle_walk(
    adjacency: Dict[int, List[int]], scc: Set[int]
) -> Optional[List[int]]:
    """An explicit closed walk through one SCC (for readable reports)."""
    start = min(scc)
    walk = [start]
    seen = {start}
    node = start
    while True:
        nxt = next(
            (s for s in adjacency.get(node, []) if s in scc), None
        )
        if nxt is None:
            return None
        if nxt == start:
            return walk
        if nxt in seen:
            # Close the walk at the revisited node instead.
            return walk[walk.index(nxt):]
        walk.append(nxt)
        seen.add(nxt)
        node = nxt


def select_victim(diagnosis: DeadlockDiagnosis, engine) -> Optional[Message]:
    """Pick the message to eject so the network can resume.

    Preference order: members of a blocking cycle, then any blocked
    header, then any active message — always skipping messages already
    in teardown (their resources are already being recovered).  Within
    a pool the victim is the message with the least committed data
    (cheapest to retry from the source), ties broken by lowest id for
    determinism.

    Two further exclusions bound pathological recovery:

    * **re-ejection cap** — a message whose origin (itself plus its
      retry clones, keyed by ``original_id``) has already been ejected
      :data:`MAX_VICTIM_EJECTIONS` times is skipped; when the
      cap excluded at least one candidate the engine's
      ``victim_cap_hits`` counter is bumped, and if *no* victim
      remains at all the engine escalates to a hard
      :class:`DeadlockError` instead of livelocking
      recovery on the same cycle forever;
    * **reconfiguration freeze** — while ``engine.routing_freeze``
      holds headers at their sources, a message with no reservations
      yet owns no virtual channel, cannot be a holder in any wait
      cycle, and ejecting it could not unblock anything, so it is
      never selected.
    """
    cap = MAX_VICTIM_EJECTIONS
    ejections = engine._ejections_by_origin
    freeze = engine.routing_freeze
    capped = False

    def eligible(msg_id: int) -> Optional[Message]:
        nonlocal capped
        msg = engine.active.get(msg_id)
        if msg is None or msg.teardown or msg.is_terminal():
            return None
        if freeze and not msg.path:
            return None
        if ejections.get(msg.original_id, 0) >= cap:
            capped = True
            return None
        return msg

    pools: List[List[int]] = [
        [mid for cyc in diagnosis.cycles for mid in cyc],
        diagnosis.blocked,
        list(engine.active),
    ]
    victim: Optional[Message] = None
    for pool in pools:
        candidates = [m for m in map(eligible, pool) if m is not None]
        if candidates:
            victim = min(
                candidates, key=lambda m: (m.injected_flits, m.msg_id)
            )
            break
    if capped:
        engine.victim_cap_hits += 1
    return victim
