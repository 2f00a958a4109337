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
from typing import List, Optional

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube

#: Candidate draws :func:`place_random_node_faults` makes before it
#: gives up on a placement that keeps the healthy nodes connected.
MAX_PLACEMENT_ATTEMPTS = 10_000


def place_random_node_faults(
    fault_state: FaultState,
    count: int,
    rng: random.Random,
) -> List[int]:
    """Fail ``count`` random distinct nodes; returns the failed node ids.

    Each candidate is checked before it fails: a node whose failure
    would disconnect the healthy portion of the network is skipped and
    never touches ``fault_state``.  Gives up (``RuntimeError``) after
    :data:`MAX_PLACEMENT_ATTEMPTS` candidate draws.
    """
    topo = fault_state.topology
    if count < 0:
        raise ValueError("fault count must be non-negative")
    if count >= topo.num_nodes:
        raise ValueError("cannot fail that many nodes")
    failed: List[int] = []
    attempts = 0
    while len(failed) < count:
        attempts += 1
        if attempts > MAX_PLACEMENT_ATTEMPTS:
            raise RuntimeError(
                f"could not place {count} faults after "
                f"{MAX_PLACEMENT_ATTEMPTS} attempts"
            )
        node = rng.randrange(topo.num_nodes)
        if node in fault_state.faulty_nodes:
            continue
        if not fault_state.healthy_nodes_connected(lost=(node,)):
            continue
        fault_state.fail_node(node)
        failed.append(node)
    return failed


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
