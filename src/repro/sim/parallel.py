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
* :func:`replicate_parallel` runs all ``max_runs`` candidate seeds
  speculatively, then *truncates* the ordered result list with the same
  stopping rule the serial loop applies incrementally
  (:func:`~repro.sim.stats.replications_converged`), so the surviving
  run list — and therefore the aggregated
  :class:`~repro.sim.stats.ReplicatedResult` — matches the serial
  campaign exactly.  The only difference is that converged points burn
  a few extra speculative replications, which is the price of running
  them concurrently.

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
from repro.sim.stats import (
    ReplicatedResult,
    RunResult,
    aggregate_replications,
    replications_converged,
)


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


def run_one_config(config: SimulationConfig) -> RunResult:
    """Worker entry point: one full simulation from a picklable config.

    Top-level (picklable by reference) so it works with every
    multiprocessing start method, not just fork.
    """
    # Imported here so pool workers pay the import once per process,
    # and to avoid a circular import (simulator -> stats -> parallel).
    from repro.sim.simulator import NetworkSimulator

    return NetworkSimulator(config).run()


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
    """Run simulations for ``configs``, preserving input order."""
    return run_tasks(run_one_config, [(cfg,) for cfg in configs], jobs)


def replicate_parallel(
    make_config: Callable[[int], SimulationConfig],
    min_runs: int = 2,
    max_runs: int = 8,
    target_relative_ci: float = 0.05,
    base_seed: int = 1,
    jobs: Optional[int] = None,
) -> ReplicatedResult:
    """Parallel ``repeat_until_confident`` with serial-identical output.

    ``make_config(seed)`` builds the replication config for one seed
    (called in this process; only the finished configs cross the
    process boundary).  All ``max_runs`` seeds run speculatively, then
    the ordered results are truncated at the first prefix length
    ``n >= min_runs`` satisfying the CI stopping rule — exactly the
    prefix the serial loop would have produced — before aggregation.
    """
    if min_runs < 1 or max_runs < min_runs:
        raise ValueError("need 1 <= min_runs <= max_runs")
    configs = [make_config(base_seed + i) for i in range(max_runs)]
    results = run_configs(configs, jobs=jobs)
    keep = max_runs
    for n in range(min_runs, max_runs + 1):
        if replications_converged(results[:n], target_relative_ci):
            keep = n
            break
    return aggregate_replications(results[:keep], target_relative_ci)
