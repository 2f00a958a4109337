"""Parallel replication campaigns over a multiprocessing pool.

The paper's repeat-until-confident protocol and the figure drivers'
(protocol, load, fault) sweeps are embarrassingly parallel: every
replication is an independent simulation fully determined by its
:class:`~repro.sim.config.SimulationConfig` (the engine seeds all
randomness from ``config.seed``).  This module fans those simulations
out across worker processes while keeping the results bit-identical to
a serial campaign:

* workers receive a picklable ``SimulationConfig`` and return a
  picklable :class:`~repro.sim.stats.RunResult`;
* results are collected **in submission order** (:func:`run_tasks`:
  ``Pool.starmap`` with ``chunksize=1``), never in completion order;
* :func:`replicate` runs seeds in batches of one per worker and keeps
  the shortest prefix of the ordered result list that meets the
  stopping rule (``ReplicatedResult.converged``), so
  the run list — and therefore the aggregated
  :class:`~repro.sim.stats.ReplicatedResult` — is the same for every
  worker count.  A parallel point runs at most one batch past the
  prefix it keeps.

Worker count resolution (:func:`resolve_jobs`): an explicit ``jobs``
argument (the CLI ``--jobs`` flag) wins, else the ``REPRO_JOBS``
environment variable, else serial (1).  ``jobs=1`` bypasses the pool
entirely so the serial code path stays the default.
"""

from __future__ import annotations

import os
from multiprocessing import Pool
from typing import Callable, List, Optional, Sequence

from repro.sim.config import SimulationConfig
from repro.sim.stats import ReplicatedResult, RunResult, aggregate_replications


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count resolution: explicit arg > ``REPRO_JOBS`` env > 1.

    Raises ``ValueError`` for non-positive or unparsable requests — a
    typo'd ``REPRO_JOBS`` should fail loudly, not silently serialize.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {env!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_tasks(
    function: Callable, tasks: Sequence[tuple], jobs: Optional[int] = None
) -> list:
    """``function(*task)`` for every task, in submission order.

    The one pool fan-out of the package: replications, chaos campaigns
    and storm campaigns all come through here.  With ``jobs <= 1`` (or a
    single task) this is a plain serial loop and no pool is built;
    otherwise the tasks are mapped over a process pool with
    ``chunksize=1`` so long runs interleave across workers while the
    result list still lines up index-for-index with the input.
    ``function`` must be picklable by reference (module top level).
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [function(*task) for task in tasks]
    with Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.starmap(function, tasks, chunksize=1)


def run_configs(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
) -> List[RunResult]:
    """Run simulations for ``configs``, preserving input order.

    Each is one :func:`repro.sim.simulator.run_config`, picklable by
    reference, so the pool works with every start method.
    """
    # Imported here: the simulator imports the routing protocols, which
    # import this package.
    from repro.sim.simulator import run_config

    return run_tasks(run_config, [(cfg,) for cfg in configs], jobs)


def replicate(
    make_config: Callable[[int], SimulationConfig],
    min_runs: int = 2,
    max_runs: int = 8,
    base_seed: int = 1,
    jobs: Optional[int] = None,
) -> ReplicatedResult:
    """The paper's protocol: replicate until the 95% CI is within
    :data:`~repro.sim.stats.TARGET_RELATIVE_CI` (5%) of the mean.

    ``make_config(seed)`` builds one replication's config for seeds
    ``base_seed``, ``base_seed + 1``, … (called in this process; only
    finished configs cross the process boundary).  They run in batches
    of ``resolve_jobs(jobs)`` — one at a time when serial — until the
    shortest prefix of ``n >= min_runs`` runs meets the CI stopping
    rule, or ``max_runs`` have run; that prefix is aggregated, so the
    result does not depend on the worker count.  Replication means
    (not pooled samples) feed the interval, as in classic
    independent-replications output analysis [Ferrari 78].  The result
    carries ``converged=False`` when the rule was never satisfied — in
    particular a single replication is always unconverged, since its
    confidence interval is unbounded.
    """
    if min_runs < 1 or max_runs < min_runs:
        raise ValueError("need 1 <= min_runs <= max_runs")
    batch = resolve_jobs(jobs)
    runs: List[RunResult] = []
    while len(runs) < max_runs:
        done = len(runs)
        seeds = range(done, min(done + batch, max_runs))
        runs += run_configs(
            [make_config(base_seed + i) for i in seeds], jobs=batch
        )
        for n in range(max(min_runs, done + 1), len(runs) + 1):
            rep = aggregate_replications(runs[:n])
            if rep.converged:
                return rep
    return aggregate_replications(runs)
