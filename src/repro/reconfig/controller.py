"""Online dynamic reconfiguration controller (DESIGN.md §10).

DBR-style reconfiguration layered on the recovery subsystem: the
paper's protocols only ever react per message (misrouting, scouting,
detours), so accumulated faults keep taxing every later message that
wanders into the same pocket.  :class:`ReconfigController` is an
engine ``on_cycle`` hook that watches fault-epoch movement and
*recovery pressure* — victim ejections from the deadlock watchdog
(:mod:`repro.sim.postmortem`), fault/abort teardowns, re-ejection cap
hits, and invariant-auditor violations (:mod:`repro.sim.invariants`)
— and, past a configurable threshold, recomputes the routing
restrictions online and commits them as a new
:attr:`FaultState.epoch`.

State machine::

    MONITOR --(epoch moved and pressure >= threshold)--> DRAIN
    DRAIN   --(no message mid-route, or timeout+ejection)--> commit
    commit  --(restrictions pushed, freeze lifted)--> MONITOR (cooldown)

Epoch-transition safety: during DRAIN the engine's ``routing_freeze``
holds every header with no reservations yet at its source, while
messages already mid-route finish (or are forcibly ejected at the
drain timeout) under the *old* restrictions.  The commit — a single
epoch bump through :meth:`FaultState.reconfigure` — happens only when
no message is mid-route, so no routing step ever mixes candidates
from two epochs and old-epoch circuits can never form a wait cycle
with new-epoch ones.  This trades a bounded reconfiguration downtime
(recorded per commit) for the global-safety argument the paper's
per-message scheme cannot make, matching the DBR playbook.

Fast-forward contract: :meth:`next_event_cycle` declares the next
monitor tick (or the very next cycle while draining), and off-tick
calls in MONITOR do nothing whatever the network holds, so the
fast-forward jumps a hooked run up to each tick exactly as it jumps an
unhooked one, byte-identical to stepping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.reconfig.restrictions import RestrictionPlan, compute_plan
from repro.sim import control
from repro.sim.config import ResilienceConfig
from repro.sim.message import HeaderPhase

#: Pressure weights over the counter deltas of one sliding window:
#: (deadlock recoveries, fault teardowns, abort teardowns,
#:  victim-cap hits, invariant violations).
PRESSURE_WEIGHTS = (3, 1, 1, 2, 5)


@dataclass(frozen=True)
class ReconfigEvent:
    """One committed (or cancelled) reconfiguration."""

    cycle: int
    #: Cycles between freeze and commit (the reconfiguration downtime).
    downtime: int
    #: Pressure score that triggered the drain.
    pressure: int
    #: Number of restricted channels committed.
    restricted: int
    #: Unsafe radius committed.
    unsafe_radius: int
    #: Mid-route messages forcibly ejected at the drain timeout.
    ejected: int
    #: False for a finalize-time cancellation (freeze lifted, nothing
    #: committed — never commit into a mixed-epoch network at shutdown).
    committed: bool = True


class ReconfigController:
    """Engine hook implementing monitor -> drain -> commit."""

    MONITOR = "monitor"
    DRAIN = "drain"

    def __init__(self, settings: ResilienceConfig):
        self.settings = settings
        self.state = self.MONITOR
        self.events: List[ReconfigEvent] = []
        self.last_plan: Optional[RestrictionPlan] = None
        self._snap: Optional[Tuple[int, ...]] = None
        self._snap_cycle = 0
        #: Fault epoch at the last commit (lazily initialized to the
        #: post-placement epoch, so static power-on faults alone never
        #: trigger — reconfiguration reacts to *accumulating* faults).
        self._committed_epoch: Optional[int] = None
        self._cooldown_until = -1
        self._freeze_start = 0
        self._pending_pressure = 0

    # ------------------------------------------------------------------
    # Fast-forward contract
    # ------------------------------------------------------------------
    def next_event_cycle(self, engine) -> Optional[int]:
        """First future cycle at which :meth:`__call__` might act.

        While draining the controller must see every cycle; while
        monitoring, only the periodic check tick mutates state, exactly
        like the invariant auditor's audit tick, whatever the network
        holds.
        """
        if self.state == self.DRAIN:
            return engine.cycle + 1
        every = self.settings.reconfig_check_every
        return (engine.cycle // every + 1) * every

    def __call__(self, engine) -> None:
        if self.state == self.DRAIN:
            self._drain_tick(engine)
            return
        if engine.cycle % self.settings.reconfig_check_every:
            return
        self._monitor_tick(engine)

    # ------------------------------------------------------------------
    # MONITOR
    # ------------------------------------------------------------------
    @staticmethod
    def _counters(engine) -> Tuple[int, ...]:
        td = engine.teardown_counts
        return (
            engine.deadlock_recoveries,
            td.get("fault", 0),
            td.get("abort", 0),
            engine.victim_cap_hits,
            engine.auditor.violations_found if engine.auditor else 0,
        )

    def _pressure(self, counters: Tuple[int, ...]) -> int:
        assert self._snap is not None
        return sum(
            w * (now - then)
            for w, now, then in zip(PRESSURE_WEIGHTS, counters, self._snap)
        )

    def _monitor_tick(self, engine) -> None:
        cycle = engine.cycle
        if self._committed_epoch is None:
            self._committed_epoch = engine.faults.epoch
        counters = self._counters(engine)
        if self._snap is None:
            self._snap = counters
            self._snap_cycle = cycle
            return
        if (
            cycle >= self._cooldown_until
            and engine.faults.epoch != self._committed_epoch
        ):
            pressure = self._pressure(counters)
            if pressure >= self.settings.reconfig_threshold:
                self._pending_pressure = pressure
                self._freeze_start = cycle
                engine.routing_freeze = True
                self.state = self.DRAIN
                return
        if cycle - self._snap_cycle >= self.settings.reconfig_window:
            self._snap = counters
            self._snap_cycle = cycle

    # ------------------------------------------------------------------
    # DRAIN
    # ------------------------------------------------------------------
    @staticmethod
    def _mid_route(msg) -> bool:
        """Still routing under the old epoch: path begun, header live.

        Messages in teardown only release resources, and messages
        whose header reached the destination only stream data down an
        established circuit — neither makes further routing decisions,
        so neither can extend a wait cycle into the new epoch.
        """
        return (
            not msg.teardown
            and bool(msg.path)
            and msg.header_phase is not HeaderPhase.DELIVERED
        )

    def _drained_for_commit(self, engine) -> bool:
        return not any(
            self._mid_route(msg) for msg in engine.active.values()
        )

    def _drain_tick(self, engine) -> None:
        ejected = 0
        if not self._drained_for_commit(engine):
            waited = engine.cycle - self._freeze_start
            if waited < self.settings.reconfig_drain_timeout:
                return
            ejected = self._eject_stragglers(engine)
        self._commit(engine, ejected)

    def _eject_stragglers(self, engine) -> int:
        """Drain timed out: tear down the remaining old-epoch circuits.

        The teardown path requeues each victim from its source (under
        the usual retry budget), where the routing freeze holds it
        until the new epoch is committed — the forced ejection converts
        stragglers into post-commit retries rather than losses.
        """
        stragglers = sorted(
            (m for m in engine.active.values() if self._mid_route(m)),
            key=lambda m: m.msg_id,
        )
        for msg in stragglers:
            engine.reconfig_victims.append(msg.msg_id)
            control.teardown(engine, msg, "reconfig", msg.header_router)
        return len(stragglers)

    # ------------------------------------------------------------------
    # COMMIT
    # ------------------------------------------------------------------
    def _commit(self, engine, ejected: int) -> None:
        plan = compute_plan(engine.faults)
        engine.faults.reconfigure(
            plan.restricted_channels, unsafe_radius=plan.unsafe_radius
        )
        self.last_plan = plan
        self._committed_epoch = engine.faults.epoch
        downtime = engine.cycle - self._freeze_start
        engine.reconfigurations += 1
        engine.reconfig_downtime_cycles += downtime
        engine.last_recovery_cycle = engine.cycle
        engine.routing_freeze = False
        self.state = self.MONITOR
        self._cooldown_until = (
            engine.cycle + self.settings.reconfig_cooldown
        )
        self._snap = self._counters(engine)
        self._snap_cycle = engine.cycle
        self.events.append(
            ReconfigEvent(
                cycle=engine.cycle,
                downtime=downtime,
                pressure=self._pending_pressure,
                restricted=len(plan.restricted_channels),
                unsafe_radius=plan.unsafe_radius,
                ejected=ejected,
            )
        )

    # ------------------------------------------------------------------
    def finalize(self, engine) -> None:
        """End-of-measurement cleanup, before the drain phase runs.

        A reconfiguration still in DRAIN is cancelled, not committed:
        committing would let frozen headers start routing under the new
        epoch while old-epoch circuits are still in flight, violating
        the transition invariant.  The freeze is lifted so the engine's
        ordinary drain can finish the run; the abandoned attempt is
        recorded with ``committed=False``.
        """
        if self.state != self.DRAIN:
            return
        downtime = engine.cycle - self._freeze_start
        engine.reconfig_downtime_cycles += downtime
        engine.routing_freeze = False
        self.state = self.MONITOR
        self.events.append(
            ReconfigEvent(
                cycle=engine.cycle,
                downtime=downtime,
                pressure=self._pending_pressure,
                restricted=0,
                unsafe_radius=engine.faults.unsafe_radius,
                ejected=0,
                committed=False,
            )
        )
