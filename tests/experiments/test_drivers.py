"""Smoke tests of the figure table and the two validation tables at
quick scale."""

import dataclasses
import math

import pytest

from repro.experiments import QUICK, Series
from repro.experiments import formula_table
from repro.experiments import theorem_table
from repro.experiments.common import fig14_load
from repro.experiments.figures import FIGURES
from repro.experiments.report import (
    render_experiment,
    render_saturation_summary,
    render_series_table,
)

LOADS = (0.05, 0.2)


class TestFigureDrivers:
    def test_fig12(self):
        exp = FIGURES["12"].run(scale=QUICK, loads=LOADS)
        assert {s.label for s in exp.series} == {"TP", "DP", "MB-m"}
        for series in exp.series:
            assert len(series.points) == 2
            assert all(p.delivered > 0 for p in series.points)
        # Headline shape at low load: MB-m latency above TP.
        tp = exp.series_by_label("TP").points[0].latency
        mb = exp.series_by_label("MB-m").points[0].latency
        assert mb > tp

    def test_fig13(self):
        exp = FIGURES["13"].run(
            scale=QUICK, loads=(0.05,), fault_counts=(10,)
        )
        labels = {s.label for s in exp.series}
        assert labels == {"TP (10F)", "MB-m (10F)"}

    def test_fig14(self):
        exp = FIGURES["14"].run(
            scale=QUICK, loads_msg=(10,), fault_sweep=(0, 10)
        )
        assert len(exp.series) == 2
        for series in exp.series:
            assert [p.extra["node_faults"] for p in series.points] == [0, 10]
        text = FIGURES["14"].render(exp)
        assert "latency vs node faults" in text

    def test_fig15(self):
        exp = FIGURES["15"].run(
            scale=QUICK, loads=(0.1,), fault_counts=(10,)
        )
        assert {s.label for s in exp.series} == {
            "Aggressive (10F)", "Conservative (10F)"
        }

    def test_fig17(self):
        exp = FIGURES["17"].run(
            scale=QUICK, loads=(0.05,), fault_counts=(10,)
        )
        assert {s.label for s in exp.series} == {
            "w/o TAck (10F)", "with TAck (10F)"
        }

    def test_ablation(self):
        exp = FIGURES["ablation"].run(
            scale=QUICK, k_values=(0, 3), m_values=(2, 6),
        )
        text = FIGURES["ablation"].render(exp)
        assert "K sweep" in text and "m sweep" in text

    def test_hw_acks(self):
        exp = FIGURES["hw-acks"].run(scale=QUICK, loads=(0.05,))
        assert [s.label for s in exp.series] == ["Flit acks", "HW acks"]
        assert all(s.points[0].delivered > 0 for s in exp.series)

    def test_length_sweep(self):
        exp = FIGURES["length"].run(scale=QUICK, lengths=(4, 32))
        tp = exp.series_by_label("TP")
        assert [p.extra["length"] for p in tp.points] == [4, 32]
        assert "ratio" in FIGURES["length"].render(exp)

    def test_length_sweep_points_are_run_points(self):
        """A length-sweep point that never drains fails the way every
        figure point does, instead of charting truncated latencies."""
        no_drain = dataclasses.replace(
            QUICK, k=4, warmup=50, measure=200, drain=0,
            replications=1, max_replications=1,
        )
        with pytest.raises(RuntimeError, match="never drained"):
            FIGURES["length"].run(scale=no_drain, lengths=(64,))

    def test_fig14_load_conversion(self):
        assert fig14_load(50) == pytest.approx(0.32)
        assert fig14_load(1) == pytest.approx(0.0064)


class TestValidationTables:
    def test_formula_table_all_match(self):
        rows = formula_table.run(
            link_grid=(1, 3), length_grid=(1, 8), k_grid=(1, 3)
        )
        assert rows and all(r.match for r in rows)
        text = formula_table.render(rows)
        assert "0 mismatches" in text

    def test_theorem_table_within_bounds(self):
        rows = theorem_table.run(radix=10, n=2, depths=(1, 2))
        assert all(r.within_bound for r in rows)
        assert all(r.measured_backtracks >= r.depth for r in rows)
        text = theorem_table.render(rows)
        assert "Theorem 1" in text


class TestReport:
    def _series(self):
        from repro.experiments import Point

        s = Series(label="X")
        s.points = [
            Point(offered_load=0.1, latency=40.0, latency_ci=1.0,
                  throughput=0.1, delivered=10, dropped=0, killed=0),
            Point(offered_load=0.5, latency=200.0, latency_ci=9.0,
                  throughput=0.3, delivered=10, dropped=0, killed=0),
        ]
        return s

    def test_table_contains_values(self):
        text = render_series_table([self._series()], title="t")
        assert "40.0" in text and "0.3000" in text

    def test_saturation_summary(self):
        text = render_saturation_summary([self._series()])
        # Latency at 0.5 exceeds 3x zero-load -> saturation tput is 0.1.
        assert "0.1000" in text

    def test_saturation_math(self):
        assert self._series().saturation_throughput() == 0.1

    def test_nan_rendering(self):
        s = Series(label="empty")
        assert math.isnan(s.saturation_throughput())
        from repro.experiments import Experiment

        exp = Experiment(figure="F", title="T", scale_name="quick",
                         series=[s])
        assert "F" in render_experiment(exp)
