"""Latency / throughput statistics (paper Section 6.0).

The paper reports average message latency (clock cycles) against
normalized accepted throughput (flits/cycle/node), running simulations
"repeatedly until the 95% confidence intervals for the sample means
were acceptable (less than 5% of the mean values)".  This module
provides:

* :class:`MessageRecord` — one finished message (the engine's output);
* :func:`summarize` — per-run aggregates over a measurement window;
* :func:`mean_confidence_interval` — Student-t 95% interval;
* :func:`aggregate_replications` / :func:`replications_converged` — the
  aggregate and the stopping rule of the paper's repeat-replications
  protocol, which :func:`repro.sim.parallel.replicate` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

#: Two-sided 95% Student-t critical values by degrees of freedom (1-30);
#: falls back to the normal 1.96 beyond the table.
_T_TABLE = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t_critical_95(dof: int) -> float:
    """Two-sided 95% Student-t critical value."""
    if dof < 1:
        raise ValueError("need at least one degree of freedom")
    if dof <= len(_T_TABLE):
        return _T_TABLE[dof - 1]
    return 1.96


def mean_confidence_interval(samples: Sequence[float]) -> tuple:
    """``(mean, half_width)`` of the 95% CI for the sample mean."""
    n = len(samples)
    if n == 0:
        return (float("nan"), float("nan"))
    mean = sum(samples) / n
    if n == 1:
        return (mean, float("inf"))
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = t_critical_95(n - 1) * math.sqrt(var / n)
    return (mean, half)


@dataclass(frozen=True)
class MessageRecord:
    """Terminal state of one message, as logged by the engine."""

    msg_id: int
    src: int
    dst: int
    status: str  # MessageStatus name
    created: int
    injected: Optional[int]
    delivered: Optional[int]
    distance: int
    hops: int
    misroutes: int
    backtracks: int
    detours: int
    retransmits: int
    #: True when a retry/retransmission clone superseded this record
    #: (excluded from loss statistics; the clone carries the outcome).
    superseded: bool

    @property
    def latency(self) -> Optional[int]:
        if self.delivered is None:
            return None
        return self.delivered - self.created


@dataclass
class RunResult:
    """Aggregates of one simulation run's measurement window."""

    cycles: int
    num_nodes: int
    latency_mean: float
    latency_ci95: float
    latency_count: int
    #: Accepted (delivered) throughput, data flits per node per cycle.
    throughput: float
    offered_load: float
    accepted_load: float
    delivered: int
    dropped: int
    killed: int
    retransmissions: int
    source_retries: int
    mean_hops: float
    mean_misroutes: float
    mean_backtracks: float
    total_detours: int
    control_flits: int
    drop_reasons: dict = field(default_factory=dict)
    latencies: List[int] = field(default_factory=list)
    #: Watchdog expiries resolved by deadlock-recovery victim ejection.
    deadlock_recoveries: int = 0
    #: Message ids ejected by deadlock recovery, in ejection order.
    deadlock_victims: List[int] = field(default_factory=list)
    #: Path teardowns by reason ("fault" / "abort" / "deadlock" /
    #: "reconfig").
    teardown_counts: dict = field(default_factory=dict)
    #: Victim selections where the per-origin re-ejection cap
    #: (``postmortem.MAX_VICTIM_EJECTIONS``) excluded a candidate.
    victim_cap_hits: int = 0
    #: Online reconfigurations committed (repro.reconfig) and their
    #: cumulative drain downtime in cycles.
    reconfigurations: int = 0
    reconfig_downtime: int = 0
    #: Message ids forcibly ejected at reconfiguration drain timeouts.
    reconfig_victims: List[int] = field(default_factory=list)
    #: Invariant audits run during the simulation (0 = auditor off).
    invariant_checks: int = 0
    #: Whether the network drained (no active messages, empty
    #: injection queues) before summarizing — as ``Engine.drain``
    #: returns it, so a kill flit may still hold a virtual channel
    #: (DESIGN.md §3).  An undrained run holds truncated latency
    #: samples — in-flight messages never produced a record — and its
    #: figures must be treated with suspicion.
    drained: bool = True

    @property
    def delivery_ratio(self) -> float:
        total = self.delivered + self.dropped + self.killed
        return self.delivered / total if total else float("nan")


def summarize(engine, warmup: int) -> RunResult:
    """Build a :class:`RunResult` from a finished engine.

    Latency statistics cover delivered, non-superseded messages created
    after the warmup; throughput/offered/accepted use the engine's
    measurement-window flit counters.
    """
    records = [r for r in engine.records if not r.superseded]
    delivered = [
        r for r in records
        if r.status == "DELIVERED" and r.created >= warmup
    ]
    latencies = [r.latency for r in delivered if r.latency is not None]
    mean, half = mean_confidence_interval(latencies)

    measure_cycles = engine.measure_window_cycles()
    if measure_cycles <= 0:
        raise ValueError(
            "zero-length measurement window: the engine never ran past "
            f"its warmup (cycle {engine.cycle}); throughput cannot be "
            "normalized — run the simulation before summarizing"
        )
    nodes = engine.topology.num_nodes
    norm = measure_cycles * nodes
    dropped = sum(
        1 for r in records if r.status == "DROPPED" and r.created >= warmup
    )
    killed = sum(
        1 for r in records if r.status == "KILLED" and r.created >= warmup
    )

    def _mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else float("nan")

    return RunResult(
        cycles=engine.cycle,
        num_nodes=nodes,
        latency_mean=mean,
        latency_ci95=half,
        latency_count=len(latencies),
        throughput=engine.measured_delivered_flits / norm,
        offered_load=engine.measured_offered_flits / norm,
        accepted_load=engine.measured_accepted_flits / norm,
        delivered=len(delivered),
        dropped=dropped,
        killed=killed,
        retransmissions=engine.retransmissions,
        source_retries=engine.source_retries,
        mean_hops=_mean([r.hops for r in delivered]),
        mean_misroutes=_mean([r.misroutes for r in delivered]),
        mean_backtracks=_mean([r.backtracks for r in delivered]),
        total_detours=sum(r.detours for r in records),
        control_flits=engine.control_flits_sent,
        drop_reasons=dict(engine.drop_reasons),
        latencies=latencies,
        deadlock_recoveries=engine.deadlock_recoveries,
        deadlock_victims=list(engine.deadlock_victims),
        teardown_counts=dict(engine.teardown_counts),
        victim_cap_hits=engine.victim_cap_hits,
        reconfigurations=engine.reconfigurations,
        reconfig_downtime=engine.reconfig_downtime_cycles,
        reconfig_victims=list(engine.reconfig_victims),
        invariant_checks=(
            engine.auditor.checks_run if engine.auditor is not None else 0
        ),
        drained=not engine.active and not any(engine.queues),
    )


@dataclass
class ReplicatedResult:
    """Aggregate of several independent replications of one run."""

    runs: List[RunResult]
    latency_mean: float
    latency_ci95: float
    throughput_mean: float
    throughput_ci95: float
    #: Whether the CI stopping rule was actually satisfied.  A single
    #: replication can never certify its interval (the n=1 CI half
    #: width is infinite), so campaigns with ``max_runs == 1`` are
    #: always unconverged and say so instead of hiding behind
    #: ``relative_ci == inf``.
    converged: bool = True

    @property
    def relative_ci(self) -> float:
        if not self.latency_mean or math.isnan(self.latency_mean):
            return float("inf")
        return self.latency_ci95 / self.latency_mean

    @property
    def delivered(self) -> int:
        return sum(r.delivered for r in self.runs)

    @property
    def dropped(self) -> int:
        return sum(r.dropped for r in self.runs)

    @property
    def killed(self) -> int:
        return sum(r.killed for r in self.runs)

    @property
    def undrained_runs(self) -> int:
        """Replications whose network never fully drained."""
        return sum(1 for r in self.runs if not r.drained)


def replications_converged(
    runs: Sequence[RunResult], target_relative_ci: float
) -> bool:
    """The campaign stopping rule, shared by serial and parallel paths.

    True when the 95% CI of the replication latency means is within
    ``target_relative_ci`` of the mean.  Fewer than two non-NaN means
    can never converge: the n=1 interval is infinite (so this also
    encodes "never stop at n=1" explicitly rather than by accident of
    ``inf`` comparisons).
    """
    lat_means = [
        r.latency_mean for r in runs if not math.isnan(r.latency_mean)
    ]
    if len(lat_means) < 2:
        return False
    mean, half = mean_confidence_interval(lat_means)
    return mean > 0 and half / mean <= target_relative_ci


def aggregate_replications(
    runs: Sequence[RunResult], target_relative_ci: float = 0.05
) -> ReplicatedResult:
    """Fold replication runs into a :class:`ReplicatedResult`.

    Pure function of the (ordered) run list, so a parallel campaign
    that reproduces the serial run list reproduces the aggregate
    exactly.
    """
    runs = list(runs)
    lat_means = [
        r.latency_mean for r in runs if not math.isnan(r.latency_mean)
    ]
    tput_means = [r.throughput for r in runs]
    lat_mean, lat_half = mean_confidence_interval(lat_means)
    tput_mean, tput_half = mean_confidence_interval(tput_means)
    return ReplicatedResult(
        runs=runs,
        latency_mean=lat_mean,
        latency_ci95=lat_half,
        throughput_mean=tput_mean,
        throughput_ci95=tput_half,
        converged=replications_converged(runs, target_relative_ci),
    )
