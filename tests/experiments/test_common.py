"""Unit tests for the experiment scaffolding."""

import math
import os

import pytest

from repro.experiments.common import (
    DEFAULT_LOADS,
    LOW_LOAD,
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
    def _series(self, latencies, throughputs, first_load=LOW_LOAD):
        """A curve at loads ``first_load``, ``2 * first_load``, …"""
        s = Series(label="x")
        for i, (lat, tput) in enumerate(zip(latencies, throughputs)):
            s.points.append(
                Point(offered_load=first_load * (i + 1), latency=lat,
                      latency_ci=0.0, throughput=tput, delivered=1,
                      dropped=0, killed=0)
            )
        return s

    def test_saturation_knee(self):
        """Latency crosses 3 x 40 = 120 a quarter of the way from 60
        to 300, so the reading is a quarter of the way from 0.3 to
        0.31."""
        s = self._series([40, 45, 60, 300], [0.1, 0.2, 0.3, 0.31])
        assert s.saturation_throughput() == pytest.approx(0.3025)

    def test_point_just_over_the_line_costs_a_sliver(self):
        """A point a little over 3x the zero-load latency moves the
        reading by a sliver of its grid step, not the whole step: two
        curves that differ only on either side of the line read
        alike."""
        tputs = [0.05, 0.1, 0.15, 0.2, 0.22]
        over = self._series([40, 60, 100, 121, 300], tputs)
        under = self._series([40, 60, 100, 119, 300], tputs)
        over_sat = over.saturation_throughput()
        under_sat = under.saturation_throughput()
        assert over_sat == pytest.approx(0.15 + 0.05 * 20 / 21)
        assert under_sat == pytest.approx(0.2 + 0.02 * 1 / 181)
        assert abs(over_sat - under_sat) < 0.01

    def test_saturation_all_below_knee(self):
        s = self._series([40, 41], [0.1, 0.2])
        assert s.saturation_throughput() == 0.2

    def test_saturation_empty(self):
        assert math.isnan(Series(label="e").saturation_throughput())

    def test_saturation_needs_the_zero_load_point(self):
        """The baseline is the latency at ``LOW_LOAD``, as the knee
        search's: a curve from 0.05 has none and reads NaN, not a
        reading against its first point's latency."""
        s = self._series([40, 45, 60, 300], [0.05, 0.1, 0.15, 0.16],
                         first_load=0.05)
        assert math.isnan(s.saturation_throughput())

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
