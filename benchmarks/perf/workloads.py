"""The four benchmark workloads: deterministic bodies built from ``--seed``.

A *body* is an ordered list of :class:`Job`\\ s — simulations the child
process runs one after another.  The simulator only ever sees the
generated ``SimulationConfig`` / campaign spec; the benchmark seed
reaches it through the derived per-job seeds (:func:`job_seed`).

Sizing (see README.md, "Workloads"): every body takes about 6 s on the
2-core reference sandbox at the commit that introduced the benchmark,
so that three repeats fit the driver's per-run budget.  ``quick`` bodies
(5-ary 2-cube, sub-second) exist only for the self-tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.common import Scale, base_config
from repro.faults import chaos
from repro.sim.config import FaultConfig, RecoveryConfig, SimulationConfig

TP_AGGRESSIVE = ("tp", {"k_unsafe": 0})
TP_CONSERVATIVE = ("tp", {"k_unsafe": 3})
DP = ("dp", {})
MB_M = ("mb", {})


@dataclass
class Job:
    """One simulation of a body.

    Exactly one of ``config`` (the benchmark constructs the
    ``NetworkSimulator`` during set-up and times ``run()``) and
    ``campaign`` (a ``(function, args)`` pair from ``repro.faults.chaos``
    that constructs its own simulator inside the timed call) is set.
    """

    label: str
    config: Optional[SimulationConfig] = None
    campaign: Optional[Tuple[Callable, tuple]] = None


def job_seed(seed: int, workload_index: int, i: int) -> int:
    """Seed of job ``i`` of workload ``workload_index`` under ``--seed``.

    Distinct for every (seed, workload, job) as long as a body has fewer
    than 100 jobs and there are fewer than 10 workloads.
    """
    return seed * 1000 + workload_index * 100 + i


def _scale(quick: bool, warmup: int, measure: int) -> Scale:
    if quick:
        return Scale(k=5, n=2, warmup=100, measure=max(300, measure // 20),
                     drain=2000, replications=1, max_replications=1,
                     fault_scale=0.1, name="quick")
    return Scale(k=16, n=2, warmup=warmup, measure=measure, drain=8000,
                 replications=1, max_replications=1, fault_scale=1.0,
                 name="bench")


def fig12_faultfree(seed: int, quick: bool = False) -> List[Job]:
    scale = _scale(quick, warmup=500, measure=1200)
    jobs = []
    # Below and at each protocol's own knee: MB-m accepts 0.159 at most,
    # and deeper in saturation its run time doubles with the seed.
    for (proto, params), loads in ((TP_AGGRESSIVE, (0.10, 0.18)),
                                   (DP, (0.10, 0.18)),
                                   (MB_M, (0.10, 0.16))):
        for load in loads:
            cfg = base_config(
                scale, proto, params, offered_load=load,
                seed=job_seed(seed, 0, len(jobs)),
            )
            jobs.append(Job(f"{proto}/load{load}", config=cfg))
    return jobs


def faulted_recovery(seed: int, quick: bool = False) -> List[Job]:
    scale = _scale(quick, warmup=500, measure=700)
    static = scale.faults(10)
    dynamic = scale.faults(10)
    recovery = RecoveryConfig(tail_ack=True, retransmit=True,
                              max_retransmits=3)
    jobs = []

    def add(label, proto, params, **overrides):
        cfg = base_config(
            scale, proto, params, offered_load=0.15,
            seed=job_seed(seed, 1, len(jobs)), **overrides,
        )
        jobs.append(Job(label, config=cfg))

    for name, (proto, params) in (("tp-k0", TP_AGGRESSIVE),
                                  ("tp-k3", TP_CONSERVATIVE),
                                  ("mb-m", MB_M)):
        add(f"{name}/static", proto, params,
            faults=FaultConfig(static_node_faults=static))
    for name, (proto, params) in (("tp-k0", TP_AGGRESSIVE),
                                  ("tp-k3", TP_CONSERVATIVE)):
        add(f"{name}/static+dynamic+tack", proto, params,
            faults=FaultConfig(static_node_faults=static,
                               dynamic_faults=dynamic,
                               dynamic_start=scale.warmup),
            recovery=recovery)
    return jobs


def idle_longhorizon(seed: int, quick: bool = False) -> List[Job]:
    scale = _scale(quick, warmup=2000, measure=300_000)
    bursty = {"burst_on": 64, "burst_off": 4032}
    plan = (
        [("tp/uniform", TP_AGGRESSIVE, {})] * (1 if quick else 4)
        + [("tp/dynamic-faults", TP_AGGRESSIVE, {
            "faults": FaultConfig(dynamic_faults=4,
                                  dynamic_start=scale.warmup),
        })] * (1 if quick else 2)
        + [("tp/bursty", TP_AGGRESSIVE, {
            "traffic": "bursty", "traffic_params": bursty,
        })] * (1 if quick else 2)
        + [("mb-m/uniform", MB_M, {})]
    )
    jobs = []
    for label, (proto, params), overrides in plan:
        cfg = base_config(
            scale, proto, params, offered_load=0.0005,
            seed=job_seed(seed, 2, len(jobs)), **overrides,
        )
        jobs.append(Job(f"{label}#{len(jobs)}", config=cfg))
    return jobs


def storm_chaos(seed: int, quick: bool = False) -> List[Job]:
    """Same order as ``run_storm_campaign`` then ``run_campaign``."""
    storm_seeds, chaos_seeds = (1, 1) if quick else (5, 7)
    storm = chaos.StormSpec(measure_cycles=500) if quick else chaos.StormSpec()
    spec = chaos.ChaosSpec(measure_cycles=400) if quick else chaos.ChaosSpec()
    jobs = []
    for scenario in ("gridlock", "linkstorm"):
        for arm in ("tp-only", "reconfig"):
            for _ in range(storm_seeds):
                args = (storm, scenario, job_seed(seed, 3, len(jobs)), arm)
                jobs.append(Job(f"storm/{scenario}/{arm}#{len(jobs)}",
                                campaign=(chaos.run_storm_one, args)))
    for protocol in ("tp", "dp", "det-naive"):
        for _ in range(chaos_seeds):
            args = (spec, job_seed(seed, 3, len(jobs)), protocol)
            jobs.append(Job(f"chaos/{protocol}#{len(jobs)}",
                            campaign=(chaos.run_one, args)))
    return jobs


@dataclass(frozen=True)
class Workload:
    build: Callable[..., List[Job]]
    #: One-line rationale, copied into BENCHMARK.json.
    why: str
    #: Traced repeats also time ``run_configs(body, jobs=2)``.
    parallel_probe: bool = False


WORKLOADS: Dict[str, Workload] = {
    "fig12-faultfree": Workload(
        fig12_faultfree,
        "Fig 12 at paper scale, below and at each protocol's knee: flit data movement "
        "dominates, RouteCache never invalidated, SoA kernel on >95% of "
        "cycles",
    ),
    "faulted-recovery": Workload(
        faulted_recovery,
        "Figs 13/14/17: static+dynamic faults with TAck/retransmit; routing, "
        "detour search, control flits and cache invalidation carry a third "
        "of the time",
    ),
    "idle-longhorizon": Workload(
        idle_longhorizon,
        "load 0.0005 over 300k cycles: 80-98% of cycles fast-forwarded, so "
        "per-step fixed overhead and gap sampling dominate; kernel never "
        "engages",
        parallel_probe=True,
    ),
    "storm-chaos": Workload(
        storm_chaos,
        "41 small storm/chaos runs: chaos and reconfig hooks, invariant "
        "auditor, watchdog/postmortem and construction cost the other three "
        "never touch",
    ),
}
