"""Tests for the benchmark snapshot differ (benchmarks/compare_bench.py).

``benchmarks/`` is not an installed package (it is collected only by
the perf jobs), so the module under test is loaded by file path.
"""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", REPO_ROOT / "benchmarks" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _rows(**cps):
    return {
        name: {"workload": name, "cycles_per_sec": value}
        for name, value in cps.items()
    }


def _write_report(path, **cps):
    path.write_text(json.dumps({
        "scale": "quick", "k": 5, "n": 2,
        "workloads": list(_rows(**cps).values()),
    }))


def test_compare_flags_regression_beyond_threshold():
    rows, regressions = compare_bench.compare(
        _rows(a=1000.0, b=1000.0),
        _rows(a=900.0, b=960.0),
        threshold=0.05,
    )
    assert regressions == ["a"]
    by_name = {r["workload"]: r for r in rows}
    assert by_name["a"]["delta"] == -0.1
    assert abs(by_name["b"]["delta"] + 0.04) < 1e-12


def test_compare_tolerates_speedups_and_boundary():
    # Exactly at the threshold is not a regression (strict inequality).
    _, regressions = compare_bench.compare(
        _rows(a=1000.0, b=1000.0),
        _rows(a=950.0, b=3000.0),
        threshold=0.05,
    )
    assert regressions == []


def test_compare_ignores_one_sided_workloads():
    rows, regressions = compare_bench.compare(
        _rows(old_only=1000.0, shared=1000.0),
        _rows(new_only=10.0, shared=1000.0),
        threshold=0.05,
    )
    assert regressions == []
    by_name = {r["workload"]: r for r in rows}
    assert by_name["old_only"]["current"] is None
    assert by_name["new_only"]["baseline"] is None
    assert by_name["old_only"]["delta"] is None


def test_compare_workloads_filter_restricts_verdict():
    """The CI saturated-workload gate: only the named workloads count
    toward the table and the regression verdict."""
    baseline = _rows(**{"tp-high": 1000.0, "tp-idle-long": 1000.0})
    current = _rows(**{"tp-high": 900.0, "tp-idle-long": 100.0})
    # Unfiltered: both regress.
    _, regressions = compare_bench.compare(baseline, current, 0.05)
    assert regressions == ["tp-high", "tp-idle-long"]
    # Gated on tp-high only: the idle collapse is invisible, and the
    # 10% tp-high drop passes a 25% gate.
    rows, regressions = compare_bench.compare(
        baseline, current, 0.25, workloads=["tp-high"]
    )
    assert [r["workload"] for r in rows] == ["tp-high"]
    assert regressions == []
    _, regressions = compare_bench.compare(
        baseline, current, 0.05, workloads=["tp-high"]
    )
    assert regressions == ["tp-high"]


def test_direction_comes_from_the_key():
    """``construct_kb`` is a cost: rising is the regression, and the
    same numbers under a rate key read the other way."""
    baseline = {"a": {"workload": "a", "construct_kb": 100.0,
                      "cycles_per_sec": 100.0}}
    current = {"a": {"workload": "a", "construct_kb": 130.0,
                     "cycles_per_sec": 130.0}}
    for key, up, down in (("construct_kb", ["a"], []),
                          ("cycles_per_sec", [], ["a"])):
        _, regressions = compare_bench.compare(
            baseline, current, 0.25, key=key)
        assert regressions == up
        _, regressions = compare_bench.compare(
            current, baseline, 0.2, key=key)
        assert regressions == down
    # Exactly at the threshold is not a regression, either way round.
    current["a"]["construct_kb"] = 125.0
    assert compare_bench.compare(
        baseline, current, 0.25, key="construct_kb")[1] == []


def test_main_workloads_gate_exit_codes(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    _write_report(base, **{"tp-high": 1000.0, "dp-high": 1000.0,
                           "tp-low": 1000.0})
    _write_report(cur, **{"tp-high": 700.0, "dp-high": 990.0,
                          "tp-low": 10.0})
    gate = ["--workloads", "tp-high,dp-high", "--threshold", "0.25"]
    assert compare_bench.main([str(base), str(cur)] + gate) == 1
    out = capsys.readouterr().out
    assert "tp-high" in out and "tp-low" not in out
    # The same gate passes once the saturated drop is within bounds.
    _write_report(cur, **{"tp-high": 800.0, "dp-high": 990.0,
                          "tp-low": 10.0})
    assert compare_bench.main([str(base), str(cur)] + gate) == 0


def test_main_exit_codes_and_render(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    _write_report(base, a=1000.0, b=1000.0)
    _write_report(cur, a=500.0, b=2000.0)
    assert compare_bench.main([str(base), str(cur)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "a" in out

    # A looser threshold turns the same diff into a pass.
    assert compare_bench.main(
        [str(base), str(cur), "--threshold", "0.6"]
    ) == 0
    assert "PASS" in capsys.readouterr().out
