"""Shared machinery for the paper's evaluation experiments (Section 6.0).

Every figure driver builds on the same pieces:

* :func:`experiment_scale` — laptop-scale defaults (8-ary 2-cube,
  shorter runs, fault counts scaled by node ratio) with the paper's
  full 16-ary 2-cube restored under ``REPRO_PAPER_SCALE=1``;
* :func:`run_point` — one (protocol, load, faults) point, replicated
  until the 95% latency CI is below 5% of the mean (the paper's
  stopping rule).  Every point of every figure is measured by it and
  plotted by :meth:`Point.of`;
* :func:`sweep_loads` — a latency-throughput curve, one
  :func:`run_point` per offered load;
* :class:`Series` / :class:`Experiment` — the figure's data, printable
  as an aligned ASCII table via :mod:`repro.experiments.report`.

Load conventions follow the paper: offered load in flits/node/cycle;
Figure 14's parenthesized loads are messages/node/5000 cycles
(``m * 32 / 5000`` flits/node/cycle for 32-flit messages).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.config import FaultConfig, RecoveryConfig, SimulationConfig
from repro.sim.parallel import replicate
from repro.sim.stats import ReplicatedResult


@dataclass(frozen=True)
class Scale:
    """Experiment sizing: reduced by default, paper-scale on request."""

    k: int
    n: int
    warmup: int
    measure: int
    drain: int
    replications: int
    max_replications: int
    #: Factor applied to the paper's fault counts (node-count ratio).
    fault_scale: float
    name: str

    def faults(self, paper_count: int) -> int:
        """Scale one of the paper's fault counts to this network size."""
        if paper_count == 0:
            return 0
        return max(1, round(paper_count * self.fault_scale))

    @property
    def num_nodes(self) -> int:
        return self.k**self.n


REDUCED = Scale(
    k=8, n=2, warmup=600, measure=2500, drain=4000,
    replications=2, max_replications=4, fault_scale=0.25, name="reduced",
)
PAPER = Scale(
    k=16, n=2, warmup=2000, measure=10_000, drain=12_000,
    replications=2, max_replications=6, fault_scale=1.0, name="paper",
)
QUICK = Scale(
    k=5, n=2, warmup=300, measure=1200, drain=2000,
    replications=1, max_replications=2, fault_scale=0.1, name="quick",
)


def experiment_scale() -> Scale:
    """Pick the experiment scale from the environment.

    ``REPRO_PAPER_SCALE=1`` → the paper's 16-ary 2-cube setup;
    ``REPRO_QUICK=1`` → tiny smoke-test scale; otherwise the reduced
    8-ary 2-cube default.
    """
    if os.environ.get("REPRO_PAPER_SCALE") == "1":
        return PAPER
    if os.environ.get("REPRO_QUICK") == "1":
        return QUICK
    return REDUCED


#: The paper's message length (flits) with a one-flit routing header.
MESSAGE_LENGTH = 32

#: Offered-load sweep (flits/node/cycle) for latency-throughput curves;
#: spans zero-load through past saturation as in Figures 12/13.
DEFAULT_LOADS = (0.02, 0.05, 0.10, 0.15, 0.20, 0.28, 0.36)

#: Saturated: mean latency above this multiple of the zero-load
#: latency — for the grid reading and the knee search alike.
LATENCY_FACTOR = 3.0
#: The zero-load load (flits/node/cycle): its latency is the baseline
#: of the grid reading and of the knee search alike.
LOW_LOAD = 0.02


def fig14_load(messages_per_5000: int) -> float:
    """Figure 14's load unit: messages/node/5000 cycles → flits/node/cycle."""
    return messages_per_5000 * MESSAGE_LENGTH / 5000.0


def base_config(scale: Scale, protocol: str,
                protocol_params: Optional[dict] = None,
                **overrides) -> SimulationConfig:
    """The common Section 6.0 configuration at the given scale.

    ``overrides`` are arbitrary :class:`SimulationConfig` fields —
    ``traffic``/``traffic_params`` select a workload pattern from the
    catalog (EXPERIMENTS.md); the default is the paper's uniform
    Bernoulli workload.
    """
    cfg = SimulationConfig(
        k=scale.k,
        n=scale.n,
        protocol=protocol,
        protocol_params=dict(protocol_params or {}),
        message_length=MESSAGE_LENGTH,
        traffic="uniform",
        warmup_cycles=scale.warmup,
        measure_cycles=scale.measure,
        drain_cycles=scale.drain,
    )
    return cfg.with_(**overrides) if overrides else cfg


@dataclass
class Point:
    """One measured point of a figure."""

    offered_load: float
    latency: float
    latency_ci: float
    throughput: float
    delivered: int
    dropped: int
    killed: int
    extra: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, offered_load: float, rep: ReplicatedResult,
           **extra: float) -> "Point":
        """The point a :func:`run_point` result plots at
        ``offered_load``; ``extra`` places it on the figure's other
        axis (node faults, K, m, message length)."""
        return cls(
            offered_load, rep.latency_mean, rep.latency_ci95,
            rep.throughput_mean, rep.delivered, rep.dropped, rep.killed,
            extra,
        )


@dataclass
class Series:
    """One curve of a figure (e.g. "TP (10F)")."""

    label: str
    points: List[Point] = field(default_factory=list)

    def saturation_throughput(self) -> float:
        """Throughput where latency first crosses :data:`LATENCY_FACTOR`
        times the latency of the point at :data:`LOW_LOAD`,
        interpolated linearly in latency between the last point under
        the line and the first over it (DESIGN.md §9).  NaN points are
        skipped; a curve that never crosses saturates at its last
        point, and one with no point at :data:`LOW_LOAD` reads NaN."""
        base = next(
            (pt.latency for pt in self.points
             if pt.offered_load == LOW_LOAD),
            float("nan"),
        )
        if math.isnan(base):
            return float("nan")
        threshold = LATENCY_FACTOR * base
        lo = None  # the last point under the line
        for pt in self.points:
            if math.isnan(pt.latency):
                continue
            if pt.latency <= threshold:
                lo = pt
            elif lo is None:
                break  # no zero-load latency to compare against
            else:
                t = (threshold - lo.latency) / (pt.latency - lo.latency)
                return lo.throughput + t * (pt.throughput - lo.throughput)
        return lo.throughput if lo is not None else 0.0


@dataclass
class Experiment:
    """A figure's worth of series plus its identity."""

    figure: str
    title: str
    scale_name: str
    series: List[Series] = field(default_factory=list)

    @property
    def heading(self) -> str:
        """The title line every report of this figure opens with."""
        return (
            f"=== {self.figure}: {self.title} [{self.scale_name} scale] ==="
        )

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)


def run_point(
    scale: Scale,
    protocol: str,
    protocol_params: Optional[dict],
    offered_load: float,
    static_faults: int = 0,
    dynamic_faults: int = 0,
    recovery: Optional[RecoveryConfig] = None,
    base_seed: int = 1,
    hardware_acks: bool = False,
    traffic: str = "uniform",
    traffic_params: Optional[dict] = None,
    message_length: int = MESSAGE_LENGTH,
    jobs: Optional[int] = None,
) -> ReplicatedResult:
    """One experiment point, replicated per the paper's CI rule.

    The one measurement of every figure point: drivers plot its result
    with :meth:`Point.of`.

    ``jobs`` (default: the ``REPRO_JOBS`` environment variable, else
    serial) fans the replications out over a process pool;
    :func:`repro.sim.parallel.replicate` gives the same
    :class:`ReplicatedResult` for every worker count.

    Replications whose network failed to drain contribute truncated
    latency samples; they are counted and warned about, and the point
    fails outright (``RuntimeError``) when *every* replication is
    undrained — such a point would be pure noise.
    """
    def make_cfg(seed: int) -> SimulationConfig:
        cfg = base_config(
            scale, protocol, protocol_params,
            offered_load=offered_load,
            seed=seed,
            hardware_acks=hardware_acks,
            traffic=traffic,
            traffic_params=dict(traffic_params or {}),
            message_length=message_length,
        )
        fault_cfg = FaultConfig(
            static_node_faults=static_faults,
            dynamic_faults=dynamic_faults,
            dynamic_start=scale.warmup,
        )
        cfg = cfg.with_(faults=fault_cfg)
        if recovery is not None:
            cfg = cfg.with_(recovery=recovery)
        return cfg

    rep = replicate(
        make_cfg,
        min_runs=scale.replications,
        max_runs=scale.max_replications,
        base_seed=base_seed,
        jobs=jobs,
    )

    undrained = rep.undrained_runs
    if undrained == len(rep.runs):
        raise RuntimeError(
            f"experiment point (protocol={protocol!r}, "
            f"load={offered_load}) never drained in any of "
            f"{len(rep.runs)} replications; its latency samples are "
            "truncated — increase drain_cycles or lower the load"
        )
    if undrained:
        warnings.warn(
            f"experiment point (protocol={protocol!r}, "
            f"load={offered_load}): {undrained}/{len(rep.runs)} "
            "replications did not drain; latency samples from those "
            "runs are truncated",
            RuntimeWarning,
            stacklevel=2,
        )
    return rep


def sweep_loads(
    scale: Scale,
    label: str,
    protocol: str,
    protocol_params: Optional[dict] = None,
    loads: Sequence[float] = DEFAULT_LOADS,
    base_seed: int = 1,
    seed_stride: int = 100,
    **point_kwargs,
) -> Series:
    """A latency-throughput curve: one :func:`run_point` per offered
    load, the ``i``-th seeded from ``base_seed + seed_stride * i``."""
    return Series(label, [
        Point.of(load, run_point(
            scale, protocol, protocol_params, load,
            base_seed=base_seed + seed_stride * i, **point_kwargs,
        ))
        for i, load in enumerate(loads)
    ])
