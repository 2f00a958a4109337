"""Tests for the auto-knee saturation driver (DESIGN.md §9)."""

import math

import pytest

from repro.experiments import QUICK, find_knee, sweep_loads
from repro.experiments.saturation import (
    KneeProbe,
    KneeResult,
    render,
    snapshot,
)

# One knee search at quick scale is a handful of short simulations;
# share it across the assertions below.
KNEE_TOL = 0.02


@pytest.fixture(scope="module")
def uniform_knee():
    return find_knee(
        QUICK, "tp", {"k_unsafe": 0}, traffic="uniform",
        tolerance=KNEE_TOL,
    )


class TestFindKnee:
    def test_bracket_converged(self, uniform_knee):
        """The (unsaturated, saturated) bracket straddles the knee and
        is at most one bisection step wide."""
        lo, hi = uniform_knee.bracket
        assert lo == uniform_knee.knee_load
        assert lo < hi
        assert hi - lo <= KNEE_TOL + 1e-12

    def test_probe_verdicts_consistent(self, uniform_knee):
        """No unsaturated probe sits above a saturated one."""
        sat = [p.offered_load for p in uniform_knee.probes if p.saturated]
        unsat = [
            p.offered_load for p in uniform_knee.probes if not p.saturated
        ]
        assert unsat and sat
        assert max(unsat) < min(sat)

    def test_knee_is_a_real_measurement(self, uniform_knee):
        assert uniform_knee.knee_throughput > 0
        assert math.isfinite(uniform_knee.base_latency)
        loads = [p.offered_load for p in uniform_knee.probes]
        assert uniform_knee.knee_load in loads

    def test_matches_fig12_grid_saturation(self, uniform_knee):
        """Acceptance: the adaptive knee agrees with the fixed-grid
        saturation criterion of the Figure 12 sweeps — every grid load
        the sweep calls unsaturated lies at or below the knee bracket,
        within one bisection step."""
        series = sweep_loads(
            QUICK, "TP", "tp", {"k_unsafe": 0},
            loads=(0.05, 0.15, 0.25, 0.35, 0.45, 0.55),
        )
        base = series.points[0].latency
        threshold = uniform_knee.latency_factor * base
        lo, hi = uniform_knee.bracket
        for pt in series.points:
            if math.isnan(pt.latency):
                continue
            if pt.latency <= threshold:
                assert pt.offered_load <= hi + KNEE_TOL
            else:
                assert pt.offered_load >= lo - KNEE_TOL
        # And the knee throughput is at least the grid's estimate
        # minus one bisection step of load.
        grid_sat = series.saturation_throughput(
            uniform_knee.latency_factor
        )
        assert uniform_knee.knee_throughput >= grid_sat - KNEE_TOL


class TestPatternKnees:
    def test_bursty_saturates_below_uniform(self, uniform_knee):
        """Clumped injection hits the knee earlier than smooth
        injection at the same time-average load."""
        bursty = find_knee(
            QUICK, "tp", {"k_unsafe": 0}, traffic="bursty",
            traffic_params={"burst_on": 24, "burst_off": 72},
            tolerance=KNEE_TOL,
        )
        assert bursty.knee_load < uniform_knee.knee_load


class TestKneeEdgeCases:
    """Degenerate searches must fail loudly, not fabricate a knee.

    ``run_point`` is replaced by closed-form fakes so each case is
    exact and instant: an all-replications-undrained run raises
    RuntimeError (what :func:`repro.experiments.common.run_point` does
    when every replication fails to drain), and a drained run returns
    an object with ``latency_mean`` / ``throughput_mean``.
    """

    @staticmethod
    def _fake(latency_of):
        class Rep:
            def __init__(self, load):
                self.latency_mean = latency_of(load)
                self.throughput_mean = load

        def run_point(scale, protocol, protocol_params, load, **kwargs):
            lat = latency_of(load)
            if math.isinf(lat):
                raise RuntimeError("no replication drained")
            return Rep(load)

        return run_point

    def test_undrained_baseline_raises(self, monkeypatch):
        """Zero-load probe never drains → clear error, no probing loop."""
        monkeypatch.setattr(
            "repro.experiments.saturation.run_point",
            self._fake(lambda load: math.inf),
        )
        with pytest.raises(RuntimeError, match="no replication drained at"):
            find_knee(QUICK, "tp", traffic="wedged")

    def test_no_deliveries_at_baseline_raises(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.saturation.run_point",
            self._fake(lambda load: math.nan),
        )
        with pytest.raises(RuntimeError, match="delivered no messages"):
            find_knee(QUICK, "tp", traffic="silent")

    def test_first_probe_saturated_raises(self, monkeypatch):
        """Every load above the baseline saturates: the bracket is
        never established from below, so the driver must refuse to
        report ``knee_load == low_load`` (the old behavior)."""
        monkeypatch.setattr(
            "repro.experiments.saturation.run_point",
            self._fake(lambda load: 30.0 if load <= 0.02 else math.inf),
        )
        with pytest.raises(RuntimeError, match="at or below the zero-load"):
            find_knee(QUICK, "tp", traffic="cliff", low_load=0.02)

    def test_first_probe_saturated_but_bisectable_is_fine(self, monkeypatch):
        """If the first doubling probe saturates but bisection *does*
        find unsaturated loads above the baseline, the knee is real."""
        monkeypatch.setattr(
            "repro.experiments.saturation.run_point",
            self._fake(lambda load: 30.0 if load <= 0.03 else 1e6),
        )
        knee = find_knee(
            QUICK, "tp", traffic="steep", low_load=0.02, tolerance=0.005,
        )
        assert 0.02 < knee.knee_load <= 0.03

    def test_normal_search_unchanged(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.saturation.run_point",
            self._fake(lambda load: 30.0 if load <= 0.3 else 1e6),
        )
        knee = find_knee(QUICK, "tp", traffic="uniform", tolerance=0.01)
        assert 0.3 - 0.01 <= knee.knee_load <= 0.3

    def test_faulted_knee_is_its_own_workload(self, monkeypatch):
        """A knee searched on a faulted network records its fault count
        and never shares a snapshot key with the fault-free knee."""
        monkeypatch.setattr(
            "repro.experiments.saturation.run_point",
            self._fake(lambda load: 30.0 if load <= 0.3 else 1e6),
        )
        plain = find_knee(QUICK, "tp", tolerance=0.01)
        faulted = find_knee(QUICK, "tp", tolerance=0.01, static_faults=2)
        assert (plain.static_faults, faulted.static_faults) == (0, 2)
        keys = [row["workload"]
                for row in snapshot([plain, faulted])["workloads"]]
        assert keys == ["uniform/tp", "uniform/tp/2F"]
        assert render([faulted]).splitlines()[2].split()[2] == "2"

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            find_knee(QUICK, "tp", tolerance=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            find_knee(QUICK, "tp", tolerance=-0.01)

    def test_bad_load_range_rejected(self):
        with pytest.raises(ValueError, match="low_load"):
            find_knee(QUICK, "tp", low_load=0.5, max_load=0.4)


class TestReporting:
    def _result(self):
        return KneeResult(
            pattern="uniform", protocol="tp", scale_name="quick",
            knee_load=0.39, knee_throughput=0.36, base_latency=35.0,
            latency_factor=3.0, tolerance=0.02,
            probes=[
                KneeProbe(0.02, 35.0, 0.02, False),
                KneeProbe(0.40, 200.0, 0.36, True),
                KneeProbe(0.39, 60.0, 0.36, False),
            ],
        )

    def test_render_table(self):
        out = render([self._result()])
        assert "uniform" in out and "0.3900" in out

    def test_snapshot_is_compare_bench_compatible(self):
        import sys
        sys.path.insert(0, "benchmarks")
        try:
            from compare_bench import compare
        finally:
            sys.path.pop(0)
        snap = snapshot([self._result()])
        rows = {row["workload"]: row for row in snap["workloads"]}
        assert "uniform/tp" in rows
        cmp_rows, regressions = compare(
            rows, rows, threshold=0.05, key="knee_throughput"
        )
        assert not regressions
        assert cmp_rows[0]["delta"] == 0.0
