"""Chaos fault-storm harness (the resilience layer's adversary).

Randomized campaigns that inject *bursts* of node/link faults at
adversarial moments — while a message is mid-path-setup, while a header
is backtracking, while a kill-flit teardown is already in flight —
across many seeds and protocols, with the runtime invariant auditor
(:mod:`repro.sim.invariants`) enabled and the deadlock-recovery
watchdog (:mod:`repro.sim.postmortem`) armed.

Unlike the paper-faithful :func:`~repro.faults.injection.random_dynamic_schedule`
(faults at uniformly random cycles), the chaos controller watches live
engine state through the :meth:`NetworkSimulator.run` per-cycle hook
and schedules each fault exactly when a message is in the targeted
vulnerable phase, on a channel that message is actually holding.  Every
run must end with the network drained or every message accounted for —
this harness is the regression gate that makes aggressive engine
changes safe to land.

CLI: ``repro-sim chaos --seeds 20 --protocols tp,dp,det-naive``.

The storm *benchmark* below promotes the harness from regression gate
to measurement instrument: :func:`run_storm_campaign` runs the same
adversarial fault storms head-to-head through two recovery arms —
``tp-only`` (the paper's per-message misrouting/detours, nothing else)
and ``reconfig`` (the same protocol plus the online reconfiguration
controller of :mod:`repro.reconfig`) — and records recovery latency,
delivery ratio over storm-window traffic, victim/ejection counts, and
reconfiguration downtime.  ``benchmarks/test_bench_resilience.py``
writes the aggregate into ``BENCH_resilience.json`` (diffable with
``benchmarks/compare_bench.py --key storm_delivery_ratio``).

CLI: ``repro-sim storm --seeds 4 --scenarios gridlock,linkstorm``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from multiprocessing import Pool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.injection import DynamicFaultSchedule, FaultEvent
from repro.sim.config import ResilienceConfig, SimulationConfig
from repro.sim.engine import DeadlockError
from repro.sim.invariants import InvariantError
from repro.sim.message import HeaderPhase, Message
from repro.sim.parallel import resolve_jobs
from repro.sim.simulator import NetworkSimulator

#: Vulnerable message phases the controller aims its bursts at.
TRIGGERS = ("setup", "backtrack", "teardown")

#: Pseudo-protocols resolving to a real protocol plus parameters.  The
#: fault-tolerant protocols (TP, DP) are deadlock-free by construction,
#: so their fault-storm runs prove the *absence* of stalls; the
#: ``det-naive`` gridlock scenario (dimension-order without dateline
#: classes — the textbook torus wormhole deadlock) proves the watchdog
#: diagnoses and recovers *real* cyclic deadlocks when they do happen.
SCENARIOS = {"det-naive": ("det", {"dateline": False})}


@dataclass
class ChaosSpec:
    """Parameters of one chaos campaign."""

    seeds: Sequence[int] = tuple(range(20))
    protocols: Sequence[str] = ("tp", "dp", "det-naive")
    k: int = 6
    n: int = 2
    offered_load: float = 0.08
    #: Workload pattern under fault storms (see the EXPERIMENTS.md
    #: catalog) — hotspot and bursty runs exercise the resilience
    #: machinery under skewed and clumped traffic.
    traffic: str = "uniform"
    traffic_params: dict = field(default_factory=dict)
    message_length: int = 8
    warmup_cycles: int = 200
    measure_cycles: int = 1000
    drain_cycles: int = 30_000
    #: Fault bursts per run, spread across the measurement window.
    bursts: int = 3
    #: Faults per burst.
    burst_size: int = 2
    #: Fraction of burst faults that kill the node at the downstream
    #: end of the targeted channel instead of the link itself.
    node_fault_fraction: float = 0.25
    #: Short watchdog so stalls are diagnosed and recovered quickly.
    watchdog_cycles: int = 120
    #: Keep the per-header wait escape far beyond the watchdog so the
    #: diagnosis/victim-ejection path is the mechanism under test.
    max_header_wait: int = 6000
    audit_every: int = 20
    max_deadlock_recoveries: int = 512
    #: Extra cycles after the drain for residual teardown tokens.
    settle_cycles: int = 200
    #: Load/length overrides for the ``det-naive`` gridlock scenario —
    #: high enough that cyclic wait genuinely forms around the rings.
    gridlock_load: float = 0.30
    gridlock_message_length: int = 16


class ChaosController:
    """Per-cycle hook that fires fault bursts at adversarial moments.

    Faults are scheduled through the engine's
    :class:`DynamicFaultSchedule` (never applied behind its back), so
    the engine's dynamic-fault phase performs the proper circuit
    interruption and kill-flit recovery for every injected fault.
    """

    def __init__(self, schedule: DynamicFaultSchedule, rng: random.Random,
                 burst_cycles: Sequence[int], burst_size: int,
                 node_fault_fraction: float, patience: int = 100):
        self.schedule = schedule
        self.rng = rng
        self.burst_cycles = list(burst_cycles)
        self.burst_size = burst_size
        self.node_fault_fraction = node_fault_fraction
        #: Cycles to wait past the due cycle for a vulnerable message
        #: before falling back to a random healthy link.
        self.patience = patience
        self.faults_injected = 0
        self.triggers_hit: List[str] = []
        self._next = 0

    def next_event_cycle(self, engine) -> Optional[int]:
        """First future cycle at which :meth:`__call__` might act.

        The engine's fast-forward contract: on a quiescent network,
        calling this hook at any cycle before the returned one is a
        pure no-op (``None`` = the hook is spent).  Before a burst's
        due cycle the hook returns immediately; at the due cycle with
        no active messages there are no vulnerable targets, so the
        burst is held until the patience deadline — the next cycle the
        hook acts regardless of network state.
        """
        if self._next >= len(self.burst_cycles):
            return None
        due = self.burst_cycles[self._next]
        if engine.cycle < due:
            return due
        return due + self.patience

    def __call__(self, engine) -> None:
        if self._next >= len(self.burst_cycles):
            return
        due = self.burst_cycles[self._next]
        if engine.cycle < due:
            return
        preferred = TRIGGERS[self._next % len(TRIGGERS)]
        trigger, targets = self._find_targets(engine, preferred)
        if not targets and engine.cycle < due + self.patience:
            return  # hold the burst until someone is vulnerable
        self._fire(engine, trigger, targets)
        self._next += 1

    # ------------------------------------------------------------------
    def _find_targets(
        self, engine, preferred: str
    ) -> Tuple[str, List[Tuple[Message, List[int]]]]:
        order = [preferred] + [t for t in TRIGGERS if t != preferred]
        for trigger in order:
            targets = self._collect(engine, trigger)
            if targets:
                return trigger, targets
        return "random", []

    @staticmethod
    def _matches(msg: Message, trigger: str) -> bool:
        if trigger == "setup":
            return not msg.teardown and msg.header_phase in (
                HeaderPhase.PENDING, HeaderPhase.IN_FLIGHT
            )
        if trigger == "backtrack":
            return not msg.teardown and (
                msg.backtrack_lock >= 0 or msg.header.backtrack
            )
        return msg.teardown  # "teardown": kill flits already traveling

    def _collect(
        self, engine, trigger: str
    ) -> List[Tuple[Message, List[int]]]:
        targets = []
        for msg in engine.active.values():
            if not msg.path or not self._matches(msg, trigger):
                continue
            links = [
                i for i in range(len(msg.path))
                if not msg.released[i]
                and not engine.faults.channel_faulty[msg.path[i].channel_id]
            ]
            if links:
                targets.append((msg, links))
        return targets

    def _fire(self, engine, trigger: str,
              targets: List[Tuple[Message, List[int]]]) -> None:
        self.triggers_hit.append(trigger)
        chosen = set()
        for _ in range(self.burst_size):
            ch = self._pick_channel(engine, targets, chosen)
            if ch is None:
                return
            chosen.add(ch)
            if self.rng.random() < self.node_fault_fraction:
                node = engine.topology.channel(ch).dst
                if engine.faults.is_node_faulty(node):
                    continue
                event = FaultEvent(
                    cycle=engine.cycle + 1, kind="node", target=node
                )
            else:
                event = FaultEvent(
                    cycle=engine.cycle + 1, kind="link", target=ch
                )
            self.schedule.events.append(event)
            self.faults_injected += 1

    def _pick_channel(self, engine, targets, chosen) -> Optional[int]:
        if targets:
            msg, links = self.rng.choice(targets)
            fresh = [
                i for i in links
                if msg.path[i].channel_id not in chosen
            ]
            if fresh:
                return msg.path[self.rng.choice(fresh)].channel_id
        healthy = [
            c for c in range(engine.topology.num_channels)
            if not engine.faults.channel_faulty[c] and c not in chosen
        ]
        return self.rng.choice(healthy) if healthy else None


@dataclass
class ChaosRunRecord:
    """Outcome of one chaos run."""

    seed: int
    protocol: str
    faults_injected: int
    triggers_hit: List[str]
    recoveries: int
    victims: List[int]
    teardown_counts: dict
    delivered: int
    dropped: int
    killed: int
    invariant_checks: int
    invariant_violations: int
    drained: bool
    accounted: bool
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Survived: no unhandled error, clean audits, nothing leaked."""
        return (
            self.error is None
            and self.invariant_violations == 0
            and (self.drained or self.accounted)
        )


@dataclass
class ChaosCampaignResult:
    """Aggregate verdict of a chaos campaign."""

    spec: ChaosSpec
    runs: List[ChaosRunRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.runs) and all(r.ok for r in self.runs)

    @property
    def total_recoveries(self) -> int:
        return sum(r.recoveries for r in self.runs)

    @property
    def total_faults(self) -> int:
        return sum(r.faults_injected for r in self.runs)

    @property
    def failures(self) -> List[ChaosRunRecord]:
        return [r for r in self.runs if not r.ok]

    def render(self) -> str:
        header = (
            f"{'seed':>5} {'proto':>9} {'faults':>6} {'recov':>5} "
            f"{'deliv':>5} {'drop':>4} {'kill':>4} {'audits':>6} "
            f"{'drained':>7}  status"
        )
        lines = [header, "-" * len(header)]
        for r in self.runs:
            status = "ok" if r.ok else (r.error or "LEAKED")
            lines.append(
                f"{r.seed:>5} {r.protocol:>9} {r.faults_injected:>6} "
                f"{r.recoveries:>5} {r.delivered:>5} {r.dropped:>4} "
                f"{r.killed:>4} {r.invariant_checks:>6} "
                f"{str(r.drained):>7}  {status}"
            )
        lines.append("-" * len(header))
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {len(self.runs)} runs, {self.total_faults} faults "
            f"injected, {self.total_recoveries} deadlock recoveries, "
            f"{len(self.failures)} failures"
        )
        return "\n".join(lines)


def burst_schedule(spec: ChaosSpec) -> List[int]:
    """Burst due-cycles spread evenly across the measurement window."""
    window = spec.measure_cycles
    return [
        spec.warmup_cycles + (i + 1) * window // (spec.bursts + 1)
        for i in range(spec.bursts)
    ]


def run_one(spec: ChaosSpec, seed: int, protocol: str) -> ChaosRunRecord:
    """One chaos run: build, storm, drain, audit, account."""
    real_protocol, params = SCENARIOS.get(protocol, (protocol, {}))
    gridlock = protocol in SCENARIOS
    cfg = SimulationConfig(
        k=spec.k, n=spec.n, protocol=real_protocol,
        protocol_params=dict(params),
        offered_load=spec.gridlock_load if gridlock else spec.offered_load,
        traffic=spec.traffic,
        traffic_params=dict(spec.traffic_params),
        message_length=(
            spec.gridlock_message_length if gridlock
            else spec.message_length
        ),
        warmup_cycles=spec.warmup_cycles,
        measure_cycles=spec.measure_cycles,
        drain_cycles=spec.drain_cycles,
        seed=seed,
        watchdog_cycles=spec.watchdog_cycles,
        max_header_wait=spec.max_header_wait,
        resilience=ResilienceConfig(
            audit_invariants=True,
            audit_every=spec.audit_every,
            max_deadlock_recoveries=spec.max_deadlock_recoveries,
        ),
    )
    sim = NetworkSimulator(cfg)
    engine = sim.engine
    if engine.dynamic_schedule is None:
        engine.dynamic_schedule = DynamicFaultSchedule()
    controller = ChaosController(
        engine.dynamic_schedule,
        random.Random((seed + 1) * 7919),
        burst_schedule(spec),
        spec.burst_size,
        spec.node_fault_fraction,
    )
    error: Optional[str] = None
    try:
        sim.run(on_cycle=controller)
        for _ in range(spec.settle_cycles):
            if engine.network_drained():
                break
            engine.step()
    except DeadlockError as exc:
        error = f"DeadlockError: {exc}"
    except InvariantError as exc:
        error = f"InvariantError: {exc}"

    if error is None:
        engine.auditor.audit()  # final audit; folds into violations_found
    records = [r for r in engine.records if not r.superseded]
    statuses = [r.status for r in records]
    accounted = (
        not engine.active
        and not any(engine.queues)
        and len(records) == engine.accepted_messages
    )
    return ChaosRunRecord(
        seed=seed,
        protocol=protocol,
        faults_injected=controller.faults_injected,
        triggers_hit=controller.triggers_hit,
        recoveries=engine.deadlock_recoveries,
        victims=list(engine.deadlock_victims),
        teardown_counts=dict(engine.teardown_counts),
        delivered=statuses.count("DELIVERED"),
        dropped=statuses.count("DROPPED"),
        killed=statuses.count("KILLED"),
        invariant_checks=(
            engine.auditor.checks_run if engine.auditor else 0
        ),
        invariant_violations=engine.auditor.violations_found,
        drained=engine.network_drained(),
        accounted=accounted,
        error=error,
    )


# ======================================================================
# Storm resilience benchmark (TP-only vs online reconfiguration)
# ======================================================================

#: Recovery arms compared head-to-head on identical storm specs.
ARMS = ("tp-only", "reconfig")


@dataclass(frozen=True)
class StormScenario:
    """One named storm shape (workload + burst pattern)."""

    name: str
    offered_load: float
    message_length: int
    bursts: int
    burst_size: int
    node_fault_fraction: float


#: The storm catalog.  ``gridlock`` is the acceptance scenario: heavy
#: clustered bursts at near-saturation load wedge whole corridors, so
#: the per-message scheme keeps paying aborts/ejections in the pocket
#: while the reconfiguration arm withdraws the pocket from the
#: candidate sets once and routes around it.  ``linkstorm`` is a
#: milder link-only storm at moderate load.
STORM_SCENARIOS: Dict[str, StormScenario] = {
    s.name: s
    for s in (
        StormScenario(
            name="gridlock", offered_load=0.22, message_length=12,
            bursts=4, burst_size=3, node_fault_fraction=0.4,
        ),
        StormScenario(
            name="linkstorm", offered_load=0.10, message_length=8,
            bursts=3, burst_size=2, node_fault_fraction=0.0,
        ),
    )
}


@dataclass
class StormSpec:
    """Parameters of one storm-benchmark campaign."""

    seeds: Sequence[int] = tuple(range(4))
    scenarios: Sequence[str] = ("gridlock", "linkstorm")
    arms: Sequence[str] = ARMS
    k: int = 6
    n: int = 2
    warmup_cycles: int = 200
    measure_cycles: int = 1500
    drain_cycles: int = 30_000
    watchdog_cycles: int = 120
    max_header_wait: int = 6000
    audit_every: int = 20
    max_deadlock_recoveries: int = 512
    settle_cycles: int = 200
    #: Reconfiguration-arm knobs (see ResilienceConfig): check often —
    #: storms are short — but demand real pressure (threshold 4) and
    #: hold each committed plan for a while (cooldown 600), so the arm
    #: reconfigures once per genuine pocket instead of churning epochs
    #: and paying drain downtime for marginal plans.
    reconfig_check_every: int = 16
    reconfig_window: int = 512
    reconfig_threshold: int = 4
    reconfig_drain_timeout: int = 200
    reconfig_cooldown: int = 600
    reconfig_unsafe_radius: int = 2


@dataclass
class StormRunRecord:
    """Outcome and recovery metrics of one storm run."""

    scenario: str
    arm: str
    seed: int
    faults_injected: int
    first_burst: int
    delivered: int
    dropped: int
    killed: int
    #: Delivery accounting restricted to messages created at or after
    #: the first burst — "delivery ratio during the storm".
    storm_delivered: int
    storm_dropped: int
    storm_killed: int
    storm_latency_mean: float
    #: Cycles from the first burst to the last recovery action (any
    #: teardown or reconfiguration commit) — how long the network kept
    #: paying for the storm.
    recovery_latency: int
    recoveries: int
    victims: int
    victim_cap_hits: int
    reconfigurations: int
    reconfig_downtime: int
    reconfig_victims: int
    invariant_checks: int
    invariant_violations: int
    drained: bool
    accounted: bool
    error: Optional[str] = None

    @property
    def storm_delivery_ratio(self) -> float:
        total = self.storm_delivered + self.storm_dropped + self.storm_killed
        return self.storm_delivered / total if total else 1.0

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.invariant_violations == 0
            and (self.drained or self.accounted)
        )


@dataclass
class StormCampaignResult:
    """All storm runs plus the per-(scenario, arm) aggregate rows."""

    spec: StormSpec
    runs: List[StormRunRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.runs) and all(r.ok for r in self.runs)

    @property
    def failures(self) -> List[StormRunRecord]:
        return [r for r in self.runs if not r.ok]

    def arm_runs(self, scenario: str, arm: str) -> List[StormRunRecord]:
        return [
            r for r in self.runs
            if r.scenario == scenario and r.arm == arm
        ]

    def rows(self) -> List[dict]:
        """Aggregate bench rows, one per scenario/arm (JSON-ready)."""
        out = []
        for scenario in self.spec.scenarios:
            for arm in self.spec.arms:
                runs = self.arm_runs(scenario, arm)
                if not runs:
                    continue
                n = len(runs)
                lat = [
                    r.storm_latency_mean for r in runs
                    if r.storm_latency_mean == r.storm_latency_mean
                ]
                out.append({
                    "workload": f"{scenario}/{arm}",
                    "scenario": scenario,
                    "arm": arm,
                    "seeds": n,
                    "faults_injected": sum(r.faults_injected for r in runs),
                    "storm_delivery_ratio": round(
                        sum(r.storm_delivery_ratio for r in runs) / n, 4
                    ),
                    "storm_latency_mean": round(
                        sum(lat) / len(lat), 2
                    ) if lat else float("nan"),
                    "recovery_latency_mean": round(
                        sum(r.recovery_latency for r in runs) / n, 1
                    ),
                    "recoveries": sum(r.recoveries for r in runs),
                    "victims": sum(r.victims for r in runs),
                    "victim_cap_hits": sum(r.victim_cap_hits for r in runs),
                    "reconfigurations": sum(
                        r.reconfigurations for r in runs
                    ),
                    "reconfig_downtime": sum(
                        r.reconfig_downtime for r in runs
                    ),
                    "reconfig_victims": sum(
                        r.reconfig_victims for r in runs
                    ),
                    "delivered": sum(r.delivered for r in runs),
                    "dropped": sum(r.dropped for r in runs),
                    "killed": sum(r.killed for r in runs),
                })
        return out

    def report(self) -> dict:
        """The ``BENCH_resilience.json`` payload."""
        return {
            "k": self.spec.k,
            "n": self.spec.n,
            "seeds": list(self.spec.seeds),
            "ok": self.ok,
            "workloads": self.rows(),
        }

    def render(self) -> str:
        header = (
            f"{'scenario/arm':<22} {'ratio':>6} {'lat':>8} {'recov':>6} "
            f"{'vict':>5} {'reconf':>6} {'down':>5} {'deliv':>6} "
            f"{'drop':>5} {'kill':>5}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows():
            lines.append(
                f"{row['workload']:<22} {row['storm_delivery_ratio']:>6.3f} "
                f"{row['storm_latency_mean']:>8.1f} {row['recoveries']:>6} "
                f"{row['victims']:>5} {row['reconfigurations']:>6} "
                f"{row['reconfig_downtime']:>5} {row['delivered']:>6} "
                f"{row['dropped']:>5} {row['killed']:>5}"
            )
        lines.append("-" * len(header))
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {len(self.runs)} runs, "
            f"{len(self.failures)} failures"
        )
        return "\n".join(lines)


def storm_config(
    spec: StormSpec, scenario: StormScenario, seed: int, arm: str
) -> SimulationConfig:
    """The SimulationConfig of one storm run (both arms share all but
    the reconfiguration switch)."""
    return SimulationConfig(
        k=spec.k, n=spec.n, protocol="tp",
        offered_load=scenario.offered_load,
        message_length=scenario.message_length,
        warmup_cycles=spec.warmup_cycles,
        measure_cycles=spec.measure_cycles,
        drain_cycles=spec.drain_cycles,
        seed=seed,
        watchdog_cycles=spec.watchdog_cycles,
        max_header_wait=spec.max_header_wait,
        resilience=ResilienceConfig(
            audit_invariants=True,
            audit_every=spec.audit_every,
            max_deadlock_recoveries=spec.max_deadlock_recoveries,
            reconfig=(arm == "reconfig"),
            reconfig_check_every=spec.reconfig_check_every,
            reconfig_window=spec.reconfig_window,
            reconfig_threshold=spec.reconfig_threshold,
            reconfig_drain_timeout=spec.reconfig_drain_timeout,
            reconfig_cooldown=spec.reconfig_cooldown,
            reconfig_unsafe_radius=spec.reconfig_unsafe_radius,
        ),
    )


def run_storm_one(
    spec: StormSpec, scenario_name: str, seed: int, arm: str
) -> StormRunRecord:
    """One storm run: same seed, same burst targeting policy per arm.

    Head-to-head means identical spec and seed, not an identical fault
    *trace*: the chaos controller aims at live vulnerable messages, so
    once the arms diverge in routing the targeted channels may too —
    the comparison is between recovery mechanisms under the same
    adversary, exactly like the chaos harness runs.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; choose from {ARMS}")
    scenario = STORM_SCENARIOS[scenario_name]
    cfg = storm_config(spec, scenario, seed, arm)
    sim = NetworkSimulator(cfg)
    engine = sim.engine
    if engine.dynamic_schedule is None:
        engine.dynamic_schedule = DynamicFaultSchedule()
    burst_cycles = [
        spec.warmup_cycles + (i + 1) * spec.measure_cycles
        // (scenario.bursts + 1)
        for i in range(scenario.bursts)
    ]
    controller = ChaosController(
        engine.dynamic_schedule,
        random.Random((seed + 1) * 7919),
        burst_cycles,
        scenario.burst_size,
        scenario.node_fault_fraction,
    )
    first_burst = burst_cycles[0]
    error: Optional[str] = None
    try:
        sim.run(on_cycle=controller)
        for _ in range(spec.settle_cycles):
            if engine.network_drained():
                break
            engine.step()
    except DeadlockError as exc:
        error = f"DeadlockError: {exc}"
    except InvariantError as exc:
        error = f"InvariantError: {exc}"

    if error is None:
        engine.auditor.audit()
    records = [r for r in engine.records if not r.superseded]
    statuses = [r.status for r in records]
    storm_records = [r for r in records if r.created >= first_burst]
    storm_statuses = [r.status for r in storm_records]
    storm_latencies = [
        r.latency for r in storm_records
        if r.status == "DELIVERED" and r.latency is not None
    ]
    accounted = (
        not engine.active
        and not any(engine.queues)
        and len(records) == engine.accepted_messages
    )
    return StormRunRecord(
        scenario=scenario_name,
        arm=arm,
        seed=seed,
        faults_injected=controller.faults_injected,
        first_burst=first_burst,
        delivered=statuses.count("DELIVERED"),
        dropped=statuses.count("DROPPED"),
        killed=statuses.count("KILLED"),
        storm_delivered=storm_statuses.count("DELIVERED"),
        storm_dropped=storm_statuses.count("DROPPED"),
        storm_killed=storm_statuses.count("KILLED"),
        storm_latency_mean=(
            sum(storm_latencies) / len(storm_latencies)
            if storm_latencies else float("nan")
        ),
        recovery_latency=max(
            0, engine.last_recovery_cycle - first_burst
        ) if engine.last_recovery_cycle else 0,
        recoveries=engine.deadlock_recoveries,
        victims=len(engine.deadlock_victims),
        victim_cap_hits=engine.victim_cap_hits,
        reconfigurations=engine.reconfigurations,
        reconfig_downtime=engine.reconfig_downtime_cycles,
        reconfig_victims=len(engine.reconfig_victims),
        invariant_checks=(
            engine.auditor.checks_run if engine.auditor else 0
        ),
        invariant_violations=engine.auditor.violations_found,
        drained=engine.network_drained(),
        accounted=accounted,
        error=error,
    )


def run_storm_campaign(
    spec: Optional[StormSpec] = None,
    jobs: Optional[int] = None,
) -> StormCampaignResult:
    """Every scenario crossed with every arm and seed, serial-identical.

    Like :func:`run_campaign`, runs are independent simulations fanned
    out over a process pool in submission order (scenario-major, then
    arm, then seed), so parallel and serial campaigns produce the same
    run list byte for byte.
    """
    spec = spec if spec is not None else StormSpec()
    for name in spec.scenarios:
        if name not in STORM_SCENARIOS:
            raise ValueError(
                f"unknown storm scenario {name!r}; choose from "
                f"{sorted(STORM_SCENARIOS)}"
            )
    tasks = [
        (spec, scenario, seed, arm)
        for scenario in spec.scenarios
        for arm in spec.arms
        for seed in spec.seeds
    ]
    result = StormCampaignResult(spec=spec)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        result.runs.extend(run_storm_one(*task) for task in tasks)
    else:
        with Pool(processes=min(jobs, len(tasks))) as pool:
            result.runs.extend(
                pool.starmap(run_storm_one, tasks, chunksize=1)
            )
    return result


def storm_record_dicts(result: StormCampaignResult) -> List[dict]:
    """Plain-dict run records (determinism tests compare these)."""
    return [asdict(r) for r in result.runs]


def run_campaign(
    spec: Optional[ChaosSpec] = None,
    jobs: Optional[int] = None,
) -> ChaosCampaignResult:
    """The full campaign: every seed crossed with every protocol.

    Each (protocol, seed) run is an independent simulation, so with
    ``jobs > 1`` (or ``REPRO_JOBS``) the grid fans out over a process
    pool.  Results are collected in submission order — the same
    protocol-major, seed-minor order as the serial loop — so the
    campaign record list is identical either way.
    """
    spec = spec if spec is not None else ChaosSpec()
    tasks = [
        (spec, seed, protocol)
        for protocol in spec.protocols
        for seed in spec.seeds
    ]
    result = ChaosCampaignResult(spec=spec)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        result.runs.extend(run_one(*task) for task in tasks)
    else:
        with Pool(processes=min(jobs, len(tasks))) as pool:
            result.runs.extend(pool.starmap(run_one, tasks, chunksize=1))
    return result
