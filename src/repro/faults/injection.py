"""Fault placement and dynamic fault schedules (Sections 2.4, 6.2).

The paper's static-fault experiments place N failed nodes "randomly
throughout the network"; its dynamic-fault experiments "probabilistically
insert f faults dynamically" during the run and compare against f/2
static faults.  This module generates both kinds of scenarios:

* :func:`place_random_node_faults` — random static node faults that
  keep the healthy portion of the network connected (the paper notes
  networks usually stay connected well past the 2n-1 theoretical
  budget, and undeliverable messages are handled by recovery; keeping
  connectivity makes delivery statistics meaningful).
* :class:`DynamicFaultSchedule` — fault events at random cycles on
  random links (:func:`random_dynamic_schedule`) or on chosen
  links/nodes, driven by the engine each cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube


def place_random_node_faults(
    fault_state: FaultState,
    count: int,
    rng: random.Random,
    protected: Sequence[int] = (),
    max_attempts: int = 10_000,
) -> List[int]:
    """Fail ``count`` random distinct nodes; returns the failed node ids.

    The placement rejects nodes whose failure would disconnect the
    healthy portion of the network (retrying up to ``max_attempts``
    candidate draws).  ``protected`` nodes are never
    failed.
    """
    topo = fault_state.topology
    if count < 0:
        raise ValueError("fault count must be non-negative")
    if count >= topo.num_nodes - len(protected):
        raise ValueError("cannot fail that many nodes")
    failed: List[int] = []
    protected_set = set(protected)
    attempts = 0
    while len(failed) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not place {count} faults after {max_attempts} attempts"
            )
        node = rng.randrange(topo.num_nodes)
        if node in fault_state.faulty_nodes or node in protected_set:
            continue
        snapshot = _snapshot_before_fail(fault_state, node)
        fault_state.fail_node(node)
        if not fault_state.healthy_nodes_connected():
            _restore_after_rejected_fail(fault_state, node, snapshot)
            continue
        failed.append(node)
    return failed


#: Placement-rollback snapshot: the incident link keys ``fail_node``
#: would newly add, plus the prior ``last_failed_channels`` list.
_FailSnapshot = Tuple[List[Tuple[int, int]], List[int]]


def _snapshot_before_fail(
    fault_state: FaultState, node: int
) -> _FailSnapshot:
    """Record exactly the state a rejected ``fail_node`` would touch.

    FaultState does not support un-failing (real failures are
    permanent); placement rollback instead snapshots the touched state
    before the speculative failure and restores it on rejection —
    O(degree) per rejection instead of rebuilding the whole fault state
    from the accepted set (which made dense placements quadratic in the
    fault count).
    """
    topo = fault_state.topology
    new_links: List[Tuple[int, int]] = []
    for dim, direction in topo.ports(node):
        out_ch = topo.channel_id(node, dim, direction)
        in_ch = topo.reverse_channel_id(out_ch)
        link = FaultState._link_key(out_ch, in_ch)
        if link not in fault_state.faulty_links:
            new_links.append(link)
    return new_links, list(fault_state.last_failed_channels)


def _restore_after_rejected_fail(
    fault_state: FaultState, node: int, snapshot: _FailSnapshot
) -> None:
    """Undo a speculative ``fail_node`` using its pre-fail snapshot.

    ``fail_node`` recorded the channels it newly failed in
    ``last_failed_channels``; together with the snapshotted link keys
    that pins every mutation apart from the unsafe marks, which are
    re-derived (one O(channels) pass, the same cost ``fail_node``
    itself already paid).
    """
    fault_state.faulty_nodes.discard(node)
    new_links, prior_last_failed = snapshot
    for link in new_links:
        fault_state.faulty_links.discard(link)
    for ch in fault_state.last_failed_channels:
        fault_state.channel_faulty[ch] = False
    fault_state.last_failed_channels = prior_last_failed
    fault_state._recompute_unsafe()


@dataclass
class FaultEvent:
    """One dynamic failure, applied when the simulator reaches ``cycle``."""

    cycle: int
    kind: str  # "node" or "link"
    target: int  # node id, or channel id for links

    def apply(self, fault_state: FaultState) -> None:
        if self.kind == "node":
            fault_state.fail_node(self.target)
        elif self.kind == "link":
            fault_state.fail_link(self.target)
        else:
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass
class DynamicFaultSchedule:
    """A time-ordered list of dynamic fault events."""

    events: List[FaultEvent] = field(default_factory=list)
    _cursor: int = 0

    def due(self, cycle: int) -> List[FaultEvent]:
        """Events scheduled at or before ``cycle`` (consumed once)."""
        due_events = []
        while self._cursor < len(self.events) and (
            self.events[self._cursor].cycle <= cycle
        ):
            due_events.append(self.events[self._cursor])
            self._cursor += 1
        return due_events

    def has_due(self, cycle: int) -> bool:
        """True when at least one unconsumed event is due by ``cycle``.

        O(1) peek so the engine's fault phase can skip entirely on the
        (overwhelmingly common) cycles with nothing scheduled.
        """
        return self._cursor < len(self.events) and (
            self.events[self._cursor].cycle <= cycle
        )

    def next_cycle(self) -> Optional[int]:
        """Cycle of the next unconsumed event, or ``None`` when spent.

        Events are time-ordered, so this is the schedule's event
        horizon: no dynamic fault can strike before it.  The engine's
        fast-forward path uses it to bound how far the clock may jump.
        """
        if self._cursor < len(self.events):
            return self.events[self._cursor].cycle
        return None

    @property
    def remaining(self) -> int:
        return len(self.events) - self._cursor


def random_dynamic_schedule(
    topology: KAryNCube,
    count: int,
    horizon: int,
    rng: random.Random,
    start_cycle: int = 0,
) -> DynamicFaultSchedule:
    """Schedule ``count`` dynamic link faults (the paper's Figure 16
    scenario) uniformly over ``[start, horizon)``.

    Each fault picks a random physical link.  Targets may repeat draws
    but duplicates are filtered so exactly ``count`` distinct links
    fail.
    """
    if horizon <= start_cycle:
        raise ValueError("horizon must be beyond start_cycle")
    events: List[FaultEvent] = []
    chosen = set()
    guard = 0
    while len(events) < count:
        guard += 1
        if guard > 100 * max(count, 1) + 100:
            raise RuntimeError("could not draw enough distinct fault targets")
        target = rng.randrange(topology.num_channels)
        # Normalize to the link (unordered pair) so both directions
        # count as one component.
        rev = topology.reverse_channel_id(target)
        key = (min(target, rev), max(target, rev))
        if key in chosen:
            continue
        chosen.add(key)
        cycle = rng.randrange(start_cycle, horizon)
        events.append(FaultEvent(cycle=cycle, kind="link", target=target))
    events.sort(key=lambda e: e.cycle)
    return DynamicFaultSchedule(events=events)
