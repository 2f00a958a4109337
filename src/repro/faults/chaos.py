"""Chaos fault-storm harness (the resilience layer's adversary).

Randomized runs that inject *bursts* of node/link faults at
adversarial moments — while a message is mid-path-setup, while a header
is backtracking, while a kill-flit teardown is already in flight —
across many seeds, with the runtime invariant auditor
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

One run body (:func:`_storm_run`) serves two campaigns.  The chaos
*campaign* (:func:`run_campaign`, ``repro-sim chaos``) crosses seeds
with protocols and asks only "did it survive".  The storm *benchmark*
(:func:`run_storm_campaign`, ``repro-sim storm``) runs named storm
shapes head-to-head through two recovery arms — ``tp-only`` (the
paper's per-message misrouting/detours, nothing else) and ``reconfig``
(the same protocol plus the online reconfiguration controller of
:mod:`repro.reconfig`) — and also records recovery latency, delivery
ratio over storm-window traffic, victim/ejection counts, and
reconfiguration downtime.  ``benchmarks/test_bench_resilience.py``
writes the aggregate into ``BENCH_resilience.json`` (diffable with
``benchmarks/compare_bench.py --key storm_delivery_ratio``).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.injection import DynamicFaultSchedule, FaultEvent
from repro.network.topology import cube
from repro.sim.config import ResilienceConfig, SimulationConfig
from repro.sim.engine import DeadlockError
from repro.sim.invariants import InvariantError
from repro.sim.message import HeaderPhase, Message
from repro.sim.parallel import run_tasks
from repro.sim.simulator import PROTOCOLS, NetworkSimulator
from repro.sim.traffic import make_injection_process, make_pattern

#: Vulnerable message phases the controller aims its bursts at.
TRIGGERS = ("setup", "backtrack", "teardown")

#: Recovery arms the storm benchmark compares on identical storm specs.
ARMS = ("tp-only", "reconfig")

# Held fixed by every harness run.  The per-header wait escape stays
# far beyond the watchdog so the diagnosis/victim-ejection path is the
# mechanism under test.
MAX_HEADER_WAIT = 6000
AUDIT_EVERY = 20
MAX_DEADLOCK_RECOVERIES = 512
WARMUP_CYCLES = 200
DRAIN_CYCLES = 30_000
#: Extra cycles after the drain for residual teardown tokens.
SETTLE_CYCLES = 200
#: Message length of the chaos campaign's workload (a storm scenario
#: sets its own).
MESSAGE_LENGTH = 8
#: Cycles a burst waits past its due cycle for a vulnerable message
#: before falling back to a random healthy link.
PATIENCE = 100

#: Where the ``reconfig`` arm departs from the ResilienceConfig
#: defaults (window 512 and threshold 4 stay; every plan commits the
#: fixed ``restrictions.UNSAFE_RADIUS`` of 2 with dead-end pruning):
#: check often — storms are short — and hold each committed plan for a
#: while, so the arm reconfigures once per genuine pocket instead of
#: churning epochs and paying drain downtime for marginal plans.
RECONFIG_KNOBS = dict(
    reconfig_check_every=16, reconfig_drain_timeout=200,
    reconfig_cooldown=600,
)

#: Pseudo-protocols of the chaos campaign, as the SimulationConfig
#: fields they set.  The fault-tolerant protocols (TP, DP) are
#: deadlock-free by construction, so their fault-storm runs prove the
#: *absence* of stalls; the ``det-naive`` gridlock scenario
#: (dimension-order without dateline classes — the textbook torus
#: wormhole deadlock — at a load and message length high enough that
#: cyclic wait genuinely forms around the rings) proves the watchdog
#: diagnoses and recovers *real* cyclic deadlocks when they do happen.
SCENARIOS = {
    "det-naive": dict(
        protocol="det", protocol_params={"dateline": False},
        offered_load=0.30, message_length=16,
    ),
}


@dataclass(frozen=True)
class StormScenario:
    """One named storm shape (workload + burst pattern)."""

    name: str
    offered_load: float
    message_length: int
    #: Fault bursts per run, spread across the measurement window.
    bursts: int
    #: Faults per burst.
    burst_size: int
    #: Fraction of burst faults that kill the node at the downstream
    #: end of the targeted channel instead of the link itself.
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


#: The names a spec or a run may use, by the kind the error reports.
_CATALOGS = {
    "protocol": (*PROTOCOLS, *SCENARIOS),
    "storm scenario": STORM_SCENARIOS,
    "arm": ARMS,
}


def _check(kind: str, *names: str) -> None:
    """Reject a name its catalog does not hold, listing the choices."""
    for name in names:
        if name not in _CATALOGS[kind]:
            raise ValueError(
                f"unknown {kind} {name!r}; "
                f"choose from {sorted(_CATALOGS[kind])}"
            )


@dataclass
class HarnessSpec:
    """What a chaos campaign and a storm campaign both choose."""

    seeds: Sequence[int] = tuple(range(20))
    k: int = 6
    n: int = 2
    measure_cycles: int = 1000
    #: Short watchdog so stalls are diagnosed and recovered quickly.
    watchdog_cycles: int = 120

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")


@dataclass
class ChaosSpec(HarnessSpec):
    """Parameters of one chaos campaign."""

    protocols: Sequence[str] = ("tp", "dp", "det-naive")
    offered_load: float = 0.08
    #: Workload pattern under fault storms (see the EXPERIMENTS.md
    #: catalog) — hotspot and bursty runs exercise the resilience
    #: machinery under skewed and clumped traffic.
    traffic: str = "uniform"
    traffic_params: dict = field(default_factory=dict)
    #: The storm shape (see :class:`StormScenario`).
    bursts: int = 3
    burst_size: int = 2
    node_fault_fraction: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        _check("protocol", *self.protocols)
        if self.bursts < 1 or self.burst_size < 1:
            raise ValueError("bursts and burst_size must be >= 1")
        if not 0.0 <= self.node_fault_fraction <= 1.0:
            raise ValueError("node_fault_fraction must be in [0, 1]")
        # Build each run's workload now, so a value its run would
        # reject fails here rather than inside the campaign.
        for protocol in self.protocols:
            config = _sim_config(self, 0, **_chaos_workload(self, protocol))
            make_pattern(config.traffic, cube(config.k, config.n),
                         config.traffic_params)
            make_injection_process(config, random.Random(0))


@dataclass
class StormSpec(HarnessSpec):
    """Parameters of one storm-benchmark campaign."""

    seeds: Sequence[int] = tuple(range(4))
    measure_cycles: int = 1500
    scenarios: Sequence[str] = ("gridlock", "linkstorm")

    def __post_init__(self) -> None:
        super().__post_init__()
        _check("storm scenario", *self.scenarios)


class ChaosController:
    """Per-cycle hook that fires fault bursts at adversarial moments.

    Faults are scheduled through the engine's
    :class:`DynamicFaultSchedule` (never applied behind its back), so
    the engine's dynamic-fault phase performs the proper circuit
    interruption and kill-flit recovery for every injected fault.
    """

    def __init__(self, schedule: DynamicFaultSchedule, rng: random.Random,
                 burst_cycles: Sequence[int], burst_size: int,
                 node_fault_fraction: float):
        self.schedule = schedule
        self.rng = rng
        self.burst_cycles = list(burst_cycles)
        self.burst_size = burst_size
        self.node_fault_fraction = node_fault_fraction
        self.faults_injected = 0
        self.triggers_hit: List[str] = []
        self._next = 0

    def next_event_cycle(self, engine) -> Optional[int]:
        """First future cycle at which :meth:`__call__` might act.

        The engine's fast-forward contract: calling this hook at any
        cycle before the returned one does nothing, whatever the network
        holds (``None`` = the hook is spent).  Before a burst's due
        cycle the hook returns at once; from then on it fires as soon
        as a message is vulnerable, so it must see every cycle.
        """
        if self._next >= len(self.burst_cycles):
            return None
        due = self.burst_cycles[self._next]
        if engine.cycle < due:
            return due
        return engine.cycle + 1

    def __call__(self, engine) -> None:
        if self._next >= len(self.burst_cycles):
            return
        due = self.burst_cycles[self._next]
        if engine.cycle < due:
            return
        preferred = TRIGGERS[self._next % len(TRIGGERS)]
        trigger, targets = self._find_targets(engine, preferred)
        if not targets and engine.cycle < due + PATIENCE:
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


class _RunVerdict:
    @property
    def ok(self) -> bool:
        """Survived: no unhandled error, clean audits, nothing leaked."""
        return (
            self.error is None
            and self.invariant_violations == 0
            and (self.drained or self.accounted)
        )


@dataclass
class _CampaignResult:
    """A campaign's spec, its runs in submission order, its verdict."""

    spec: HarnessSpec
    runs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.runs) and all(r.ok for r in self.runs)

    @property
    def failures(self) -> list:
        return [r for r in self.runs if not r.ok]

    def _table(self, header: str, rows: List[str], totals: str = "") -> str:
        """``rows`` under ``header``, closed by the verdict line."""
        rule = "-" * len(header)
        verdict = "PASS" if self.ok else "FAIL"
        return "\n".join([
            header, rule, *rows, rule,
            f"{verdict}: {len(self.runs)} runs, {totals}"
            f"{len(self.failures)} failures",
        ])


@dataclass
class ChaosRunRecord(_RunVerdict):
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


@dataclass
class ChaosCampaignResult(_CampaignResult):
    """Aggregate verdict of a chaos campaign."""

    @property
    def total_recoveries(self) -> int:
        return sum(r.recoveries for r in self.runs)

    @property
    def total_faults(self) -> int:
        return sum(r.faults_injected for r in self.runs)

    def render(self) -> str:
        header = (
            f"{'seed':>5} {'proto':>9} {'faults':>6} {'recov':>5} "
            f"{'deliv':>5} {'drop':>4} {'kill':>4} {'audits':>6} "
            f"{'drained':>7}  status"
        )
        rows = [
            f"{r.seed:>5} {r.protocol:>9} {r.faults_injected:>6} "
            f"{r.recoveries:>5} {r.delivered:>5} {r.dropped:>4} "
            f"{r.killed:>4} {r.invariant_checks:>6} {str(r.drained):>7}  "
            + ("ok" if r.ok else (r.error or "LEAKED"))
            for r in self.runs
        ]
        return self._table(header, rows, (
            f"{self.total_faults} faults injected, "
            f"{self.total_recoveries} deadlock recoveries, "
        ))


@dataclass
class StormRunRecord(_RunVerdict):
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


@dataclass
class StormCampaignResult(_CampaignResult):
    """All storm runs plus the per-(scenario, arm) aggregate rows."""

    def arm_runs(self, scenario: str, arm: str) -> List[StormRunRecord]:
        return [
            r for r in self.runs
            if r.scenario == scenario and r.arm == arm
        ]

    def rows(self) -> List[dict]:
        """Aggregate bench rows, one per scenario/arm (JSON-ready)."""
        out = []
        for scenario in self.spec.scenarios:
            for arm in ARMS:
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
        return self._table(header, [
            f"{row['workload']:<22} {row['storm_delivery_ratio']:>6.3f} "
            f"{row['storm_latency_mean']:>8.1f} {row['recoveries']:>6} "
            f"{row['victims']:>5} {row['reconfigurations']:>6} "
            f"{row['reconfig_downtime']:>5} {row['delivered']:>6} "
            f"{row['dropped']:>5} {row['killed']:>5}"
            for row in self.rows()
        ])


def burst_schedule(spec: HarnessSpec, shape=None) -> List[int]:
    """Due-cycles of ``shape.bursts`` bursts (a ChaosSpec is its own
    shape) spread evenly across the spec's measurement window."""
    bursts = (shape or spec).bursts
    return [
        WARMUP_CYCLES + (i + 1) * spec.measure_cycles // (bursts + 1)
        for i in range(bursts)
    ]


def _sim_config(spec: HarnessSpec, seed: int, reconfig=False,
                **config) -> SimulationConfig:
    """A harness run's configuration: geometry, window and watchdog
    from the spec, the workload ``config`` as SimulationConfig fields."""
    return SimulationConfig(
        k=spec.k, n=spec.n,
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=spec.measure_cycles,
        drain_cycles=DRAIN_CYCLES,
        seed=seed,
        watchdog_cycles=spec.watchdog_cycles,
        max_header_wait=MAX_HEADER_WAIT,
        resilience=ResilienceConfig(
            audit_invariants=True,
            audit_every=AUDIT_EVERY,
            max_deadlock_recoveries=MAX_DEADLOCK_RECOVERIES,
            reconfig=reconfig,
            **RECONFIG_KNOBS,
        ),
        **config,
    )


def _chaos_workload(spec: ChaosSpec, protocol: str) -> dict:
    """A chaos run's workload: the spec's traffic, overridden by what
    ``protocol``'s pseudo-protocol entry names."""
    config = dict(
        protocol=protocol,
        offered_load=spec.offered_load,
        message_length=MESSAGE_LENGTH,
        traffic=spec.traffic,
        traffic_params=dict(spec.traffic_params),
    )
    config.update(SCENARIOS.get(protocol, {}))
    return config


def _storm_run(spec: HarnessSpec, seed: int, shape, reconfig=False, **config):
    """The one run body: build, storm, drain, settle, audit, account.

    ``shape`` (a :class:`ChaosSpec` or a :class:`StormScenario`) gives
    the burst count, size and node share; ``config`` is the workload as
    :class:`SimulationConfig` fields.  Returns the engine, the chaos
    controller, the non-superseded message records and the fields both
    record types report alike.
    """
    sim = NetworkSimulator(_sim_config(spec, seed, reconfig, **config))
    engine = sim.engine
    # No dynamic faults in the config, so no schedule attached yet.
    engine.dynamic_schedule = DynamicFaultSchedule()
    controller = ChaosController(
        engine.dynamic_schedule,
        random.Random((seed + 1) * 7919),
        burst_schedule(spec, shape),
        shape.burst_size,
        shape.node_fault_fraction,
    )
    error: Optional[str] = None
    try:
        sim.run(on_cycle=controller)
        for _ in range(SETTLE_CYCLES):
            if engine.network_drained():
                break
            engine.step()
    except (DeadlockError, InvariantError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    else:
        engine.auditor.audit(engine)  # final audit; folds into violations_found
    records = [r for r in engine.records if not r.superseded]
    ended = Counter(r.status for r in records)
    return engine, controller, records, dict(
        seed=seed,
        faults_injected=controller.faults_injected,
        delivered=ended["DELIVERED"],
        dropped=ended["DROPPED"],
        killed=ended["KILLED"],
        recoveries=engine.deadlock_recoveries,
        invariant_checks=engine.auditor.checks_run,
        invariant_violations=engine.auditor.violations_found,
        drained=engine.network_drained(),
        accounted=(
            not engine.active
            and not any(engine.queues)
            and len(records) == engine.accepted_messages
        ),
        error=error,
    )


def run_one(spec: ChaosSpec, seed: int, protocol: str) -> ChaosRunRecord:
    """One chaos run: ``protocol`` (a pseudo-protocol overriding what
    its catalog entry names) under the spec's traffic and storm shape."""
    _check("protocol", protocol)
    engine, controller, _, shared = _storm_run(
        spec, seed, spec, **_chaos_workload(spec, protocol)
    )
    return ChaosRunRecord(
        protocol=protocol,
        triggers_hit=controller.triggers_hit,
        victims=list(engine.deadlock_victims),
        teardown_counts=dict(engine.teardown_counts),
        **shared,
    )


def run_storm_one(
    spec: StormSpec, scenario_name: str, seed: int, arm: str
) -> StormRunRecord:
    """One storm run: same seed, same burst targeting policy per arm.

    Head-to-head means identical spec and seed, not an identical fault
    *trace*: the chaos controller aims at live vulnerable messages, so
    once the arms diverge in routing the targeted channels may too —
    the comparison is between recovery mechanisms under the same
    adversary, exactly like the chaos campaign's runs.
    """
    _check("storm scenario", scenario_name)
    _check("arm", arm)
    scenario = STORM_SCENARIOS[scenario_name]
    engine, controller, records, shared = _storm_run(
        spec, seed, scenario, reconfig=(arm == "reconfig"), protocol="tp",
        offered_load=scenario.offered_load,
        message_length=scenario.message_length,
    )
    first_burst = controller.burst_cycles[0]
    storm_records = [r for r in records if r.created >= first_burst]
    storm_ended = Counter(r.status for r in storm_records)
    storm_latencies = [
        r.latency for r in storm_records
        if r.status == "DELIVERED" and r.latency is not None
    ]
    return StormRunRecord(
        scenario=scenario_name,
        arm=arm,
        first_burst=first_burst,
        storm_delivered=storm_ended["DELIVERED"],
        storm_dropped=storm_ended["DROPPED"],
        storm_killed=storm_ended["KILLED"],
        storm_latency_mean=(
            sum(storm_latencies) / len(storm_latencies)
            if storm_latencies else float("nan")
        ),
        recovery_latency=max(
            0, engine.last_recovery_cycle - first_burst
        ) if engine.last_recovery_cycle else 0,
        victims=len(engine.deadlock_victims),
        victim_cap_hits=engine.victim_cap_hits,
        reconfigurations=engine.reconfigurations,
        reconfig_downtime=engine.reconfig_downtime_cycles,
        reconfig_victims=len(engine.reconfig_victims),
        **shared,
    )


def run_campaign(
    spec: Optional[ChaosSpec] = None,
    jobs: Optional[int] = None,
) -> ChaosCampaignResult:
    """The full campaign: every seed crossed with every protocol.

    Each (protocol, seed) run is an independent simulation, so with
    ``jobs > 1`` (or ``REPRO_JOBS``) the grid fans out over a process
    pool.  Results come back in submission order — protocol-major,
    seed-minor — so the campaign record list is identical either way.
    """
    spec = spec if spec is not None else ChaosSpec()
    tasks = [
        (spec, seed, protocol)
        for protocol in spec.protocols
        for seed in spec.seeds
    ]
    return ChaosCampaignResult(spec, run_tasks(run_one, tasks, jobs))


def run_storm_campaign(
    spec: Optional[StormSpec] = None,
    jobs: Optional[int] = None,
) -> StormCampaignResult:
    """Every scenario crossed with every arm and seed, fanned out like
    :func:`run_campaign` (scenario-major, then arm, then seed)."""
    spec = spec if spec is not None else StormSpec()
    tasks = [
        (spec, scenario, seed, arm)
        for scenario in spec.scenarios
        for arm in ARMS
        for seed in spec.seeds
    ]
    return StormCampaignResult(spec, run_tasks(run_storm_one, tasks, jobs))
