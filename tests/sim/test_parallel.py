"""Tests for parallel replication campaigns (``repro.sim.parallel``).

The contract under test: a parallel campaign must be *bit-identical*
to the serial one — same ordered run list, same aggregate — with the
worker count resolved from the ``--jobs`` argument or the
``REPRO_JOBS`` environment variable.
"""

import dataclasses
import time
from unittest import mock

import pytest

import repro.sim.parallel as parallel
import repro.sim.simulator as simulator
from repro.experiments.common import QUICK, Scale, run_point
from repro.sim.config import SimulationConfig
from repro.sim.parallel import (
    replicate,
    resolve_jobs,
    run_configs,
    run_tasks,
)
from repro.sim.simulator import run_config
from repro.sim.stats import RunResult, aggregate_replications


def quick_config(seed: int, load: float = 0.05) -> SimulationConfig:
    """A tiny, fast configuration that still exercises the full engine."""
    return SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=load,
        warmup_cycles=100, measure_cycles=400, seed=seed,
    )


def replicate_fakes(run_one, **kwargs):
    """Serial :func:`replicate` over ``run_one(seed)``'s results instead
    of simulations."""
    with mock.patch.object(simulator, "run_config", run_one):
        return replicate(lambda seed: seed, jobs=1, **kwargs)


def fake_run(latency: float, drained: bool = True) -> RunResult:
    return RunResult(
        cycles=100, num_nodes=25, latency_mean=latency,
        latency_ci95=1.0, latency_count=50, throughput=0.1,
        offered_load=0.1, accepted_load=0.1, delivered=50, dropped=0,
        killed=0, retransmissions=0, source_retries=0, mean_hops=4.0,
        mean_misroutes=0.0, mean_backtracks=0.0, total_detours=0,
        control_flits=0, drained=drained,
    )


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs() == 7

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_unparsable_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError, match="positive integer"):
            resolve_jobs()

    def test_nonpositive_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_jobs()


def finish_after(delay: float, label: str):
    """Pool task (top level, so picklable): sleep, then report when."""
    time.sleep(delay)
    return label, time.monotonic()


class TestRunTasks:
    """The one fan-out every campaign layer calls."""

    def test_submission_order_beats_completion_order(self):
        tasks = [(0.3, "slow"), (0.0, "quick"), (0.0, "quicker")]
        results = run_tasks(finish_after, tasks, jobs=2)
        assert [label for label, _ in results] == ["slow", "quick", "quicker"]
        finished = [at for _, at in results]
        assert finished[0] > finished[1] and finished[0] > finished[2]

    @pytest.mark.parametrize("tasks,jobs", [
        ([(0.0, "a"), (0.0, "b")], 1),
        ([(0.0, "only")], 4),
        ([], 4),
    ], ids=["jobs-1", "single-task", "no-task"])
    def test_serial_cases_never_build_a_pool(self, monkeypatch, tasks, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(parallel, "Pool", no_pool)
        results = run_tasks(finish_after, tasks, jobs=jobs)
        assert [label for label, _ in results] == [t[1] for t in tasks]


class TestRunConfigs:
    def test_preserves_input_order(self):
        """Pool results must line up index-for-index with the configs,
        never arrive in completion order."""
        configs = [quick_config(seed) for seed in (11, 12, 13)]
        serial = [run_config(cfg) for cfg in configs]
        parallel = run_configs(configs, jobs=2)
        assert len(parallel) == len(serial)
        for a, b in zip(serial, parallel):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_serial_path_without_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        results = run_configs([quick_config(21)])
        assert len(results) == 1
        assert results[0].delivered > 0


class TestParallelEqualsSerial:
    def test_replicate_parallel_matches_serial(self):
        serial = replicate(
            quick_config, min_runs=1, max_runs=3, base_seed=5, jobs=1,
        )
        parallel = replicate(
            quick_config, min_runs=1, max_runs=3, base_seed=5, jobs=2,
        )
        assert len(parallel.runs) == len(serial.runs)
        for a, b in zip(serial.runs, parallel.runs):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert parallel.latency_mean == serial.latency_mean
        assert parallel.latency_ci95 == serial.latency_ci95
        assert parallel.throughput_mean == serial.throughput_mean
        assert parallel.converged == serial.converged

    def test_run_point_env_jobs_matches_serial(self, monkeypatch):
        """The REPRO_JOBS>=2 path through run_point reproduces the
        serial ReplicatedResult exactly."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = run_point(QUICK, "tp", None, offered_load=0.05)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = run_point(QUICK, "tp", None, offered_load=0.05)
        assert len(parallel.runs) == len(serial.runs)
        for a, b in zip(serial.runs, parallel.runs):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert parallel.latency_mean == serial.latency_mean
        assert parallel.throughput_mean == serial.throughput_mean
        assert parallel.converged == serial.converged

    def test_replicate_parallel_validation(self):
        with pytest.raises(ValueError):
            replicate(quick_config, min_runs=0)
        with pytest.raises(ValueError):
            replicate(quick_config, min_runs=3, max_runs=2)

    def test_parallel_point_stops_past_convergence(self):
        """Batches of one seed per worker: a converged point builds no
        config past the batch that converged it."""
        seeds = []

        def make_config(seed):
            seeds.append(seed)
            return quick_config(seed)

        rep = replicate(make_config, min_runs=2, max_runs=8, jobs=2)
        assert rep.converged and len(rep.runs) < 8
        assert seeds == list(range(1, len(seeds) + 1))
        assert len(rep.runs) <= len(seeds) < len(rep.runs) + 2


class TestConvergedFlag:
    def test_single_run_never_converges(self):
        """The n=1 CI half-width is infinite: one replication cannot
        certify its interval, and the aggregate must say so."""
        rep = aggregate_replications([fake_run(40.0)])
        assert rep.converged is False

    def test_identical_runs_converge(self):
        rep = aggregate_replications([fake_run(40.0), fake_run(40.0)])
        assert rep.converged is True
        assert rep.relative_ci == 0.0

    def test_max_runs_one_flagged_unconverged(self):
        rep = replicate_fakes(
            lambda seed: fake_run(40.0), min_runs=1, max_runs=1,
        )
        assert len(rep.runs) == 1
        assert rep.converged is False

    def test_noisy_runs_unconverged_at_cap(self):
        values = iter([10.0, 90.0, 50.0])
        rep = replicate_fakes(
            lambda seed: fake_run(next(values)), min_runs=2, max_runs=3,
        )
        assert rep.converged is False


class TestUndrainedHandling:
    def test_undrained_runs_counted(self):
        rep = aggregate_replications(
            [fake_run(40.0), fake_run(41.0, drained=False)]
        )
        assert rep.undrained_runs == 1

    def test_all_undrained_point_fails(self, monkeypatch):
        """With no drain budget at a moderate load, every replication
        leaves messages in flight — the point is pure noise and must
        raise instead of charting truncated latencies."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        no_drain = Scale(
            k=5, n=2, warmup=100, measure=300, drain=0,
            replications=1, max_replications=1, fault_scale=0.1,
            name="nodrain",
        )
        with pytest.raises(RuntimeError, match="never drained"):
            run_point(no_drain, "tp", None, offered_load=0.2)

    def test_partial_undrained_warns(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        crafted = aggregate_replications(
            [fake_run(40.0), fake_run(41.0, drained=False)]
        )
        monkeypatch.setattr(
            "repro.experiments.common.replicate",
            lambda *a, **k: crafted,
        )
        with pytest.warns(RuntimeWarning, match="did not drain"):
            rep = run_point(QUICK, "tp", None, offered_load=0.05)
        assert rep.undrained_runs == 1
