"""Unit tests for the statistics machinery."""

import math

import pytest

from repro.sim.stats import (
    MessageRecord,
    mean_confidence_interval,
    t_critical_95,
)
from tests.sim.test_parallel import replicate_fakes


class TestConfidenceInterval:
    def test_empty(self):
        mean, half = mean_confidence_interval([])
        assert math.isnan(mean) and math.isnan(half)

    def test_single_sample_infinite(self):
        mean, half = mean_confidence_interval([10.0])
        assert mean == 10.0 and math.isinf(half)

    def test_identical_samples_zero_width(self):
        mean, half = mean_confidence_interval([5.0] * 10)
        assert mean == 5.0 and half == 0.0

    def test_known_case(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        mean, half = mean_confidence_interval(samples)
        assert mean == 3.0
        # s = sqrt(2.5), t(4) = 2.776 -> half = 2.776 * sqrt(2.5/5)
        assert half == pytest.approx(2.776 * math.sqrt(0.5), rel=1e-6)

    def test_width_shrinks_with_more_samples(self):
        base = [1.0, 2.0, 3.0, 4.0]
        _, narrow = mean_confidence_interval(base * 10)
        _, wide = mean_confidence_interval(base)
        assert narrow < wide

    def test_t_table(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(30) == pytest.approx(2.042)
        assert t_critical_95(1000) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t_critical_95(0)


class TestMessageRecord:
    def _rec(self, **kw):
        base = dict(
            msg_id=1, src=0, dst=5, status="DELIVERED", created=10,
            injected=11, delivered=50, distance=4, hops=4, misroutes=0,
            backtracks=0, detours=0, retransmits=0, superseded=False,
        )
        base.update(kw)
        return MessageRecord(**base)

    def test_latency(self):
        assert self._rec().latency == 40

    def test_latency_none_when_undelivered(self):
        assert self._rec(delivered=None, status="DROPPED").latency is None

    def test_frozen(self):
        rec = self._rec()
        with pytest.raises(AttributeError):
            rec.status = "KILLED"


class TestRepeatUntilConfident:
    def _fake_result(self, latency, throughput=0.1):
        from repro.sim.stats import RunResult

        return RunResult(
            cycles=100, num_nodes=64, latency_mean=latency,
            latency_ci95=1.0, latency_count=50, throughput=throughput,
            offered_load=0.1, accepted_load=0.1, delivered=50, dropped=0,
            killed=0, retransmissions=0, source_retries=0, mean_hops=4.0,
            mean_misroutes=0.0, mean_backtracks=0.0, total_detours=0,
            control_flits=0,
        )

    def test_stops_early_when_tight(self):
        calls = []

        def run_one(seed):
            calls.append(seed)
            return self._fake_result(latency=40.0)

        result = replicate_fakes(run_one, min_runs=2, max_runs=8)
        assert len(calls) == 2  # identical means -> zero-width CI
        assert result.latency_mean == 40.0
        assert result.relative_ci == 0.0

    def test_runs_more_when_noisy(self):
        values = iter([10.0, 90.0, 50.0, 48.0, 52.0, 50.0, 49.0, 51.0])

        def run_one(seed):
            return self._fake_result(latency=next(values))

        result = replicate_fakes(
            run_one, min_runs=2, max_runs=8
        )
        assert len(result.runs) > 2

    def test_respects_max_runs(self):
        import itertools

        values = itertools.cycle([1.0, 100.0])

        def run_one(seed):
            return self._fake_result(latency=next(values))

        result = replicate_fakes(run_one, min_runs=2, max_runs=3)
        assert len(result.runs) == 3

    def test_distinct_seeds(self):
        seeds = []

        def run_one(seed):
            seeds.append(seed)
            return self._fake_result(latency=40.0)

        replicate_fakes(run_one, min_runs=2, max_runs=4, base_seed=7)
        assert seeds == [7, 8]

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate_fakes(lambda s: None, min_runs=0)

    def test_aggregates_counts(self):
        def run_one(seed):
            return self._fake_result(latency=40.0)

        result = replicate_fakes(run_one, min_runs=2, max_runs=2)
        assert result.delivered == 100
        assert result.dropped == 0
