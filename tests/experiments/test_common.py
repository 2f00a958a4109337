"""Unit tests for the experiment scaffolding."""

import math
import os

import pytest

from repro.experiments.common import (
    DEFAULT_LOADS,
    MESSAGE_LENGTH,
    PAPER,
    QUICK,
    REDUCED,
    Point,
    Series,
    base_config,
    experiment_scale,
    fig14_load,
    run_point,
)


class TestScale:
    def test_paper_scale_matches_paper(self):
        assert PAPER.k == 16 and PAPER.n == 2
        assert PAPER.fault_scale == 1.0
        assert PAPER.num_nodes == 256

    def test_reduced_fault_scaling_by_node_ratio(self):
        # 64/256 nodes -> 0.25: the paper's 20 faults become 5.
        assert REDUCED.faults(20) == 5
        assert REDUCED.faults(10) == 2  # round(2.5) == 2 (banker's)
        assert REDUCED.faults(1) == 1   # never below one
        assert REDUCED.faults(0) == 0

    def test_env_selects_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        monkeypatch.delenv("REPRO_QUICK", raising=False)
        assert experiment_scale() is REDUCED
        monkeypatch.setenv("REPRO_QUICK", "1")
        assert experiment_scale() is QUICK
        monkeypatch.delenv("REPRO_QUICK")
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert experiment_scale() is PAPER


class TestBaseConfig:
    def test_uses_paper_workload(self):
        cfg = base_config(REDUCED, "tp")
        assert cfg.message_length == MESSAGE_LENGTH == 32
        assert cfg.traffic == "uniform"

    def test_overrides(self):
        cfg = base_config(QUICK, "mb", offered_load=0.25, seed=9)
        assert cfg.offered_load == 0.25 and cfg.seed == 9
        assert cfg.protocol == "mb"


class TestFig14Load:
    def test_paper_values(self):
        # Text: 50 msgs/node/5000 cycles is 0.32 flits/node/cycle.
        assert fig14_load(50) == pytest.approx(0.32)
        assert fig14_load(30) == pytest.approx(0.192)

    def test_loads_span_saturation(self):
        assert DEFAULT_LOADS[0] <= 0.05
        assert DEFAULT_LOADS[-1] >= 0.32


class TestSeries:
    def _series(self, latencies, throughputs):
        s = Series(label="x")
        for lat, tput in zip(latencies, throughputs):
            s.points.append(
                Point(offered_load=tput, latency=lat, latency_ci=0.0,
                      throughput=tput, delivered=1, dropped=0, killed=0)
            )
        return s

    def test_saturation_knee(self):
        s = self._series([40, 45, 60, 300], [0.1, 0.2, 0.3, 0.31])
        assert s.saturation_throughput() == 0.3

    def test_saturation_all_below_knee(self):
        s = self._series([40, 41], [0.1, 0.2])
        assert s.saturation_throughput() == 0.2

    def test_saturation_empty(self):
        assert math.isnan(Series(label="e").saturation_throughput())

    def test_saturation_ignores_nan_points(self):
        s = self._series([40, float("nan"), 42], [0.1, 0.2, 0.3])
        assert s.saturation_throughput() == 0.3


class TestRunPoint:
    def test_replicated_point(self):
        rep = run_point(QUICK, "tp", {}, offered_load=0.05, base_seed=3)
        assert rep.delivered > 0
        assert not math.isnan(rep.latency_mean)
        assert len(rep.runs) >= 1

    def test_static_faults_applied(self):
        rep = run_point(
            QUICK, "tp", {}, offered_load=0.05,
            static_faults=2, base_seed=3,
        )
        assert rep.delivered > 0
