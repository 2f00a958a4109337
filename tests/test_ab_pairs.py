"""Tests for the A/B pair runner (benchmarks/ab_pairs.py).

No benchmark runs here: the subprocess launcher is replaced by a
recorder, so the tests pin the alternation order, the argv each run
gets, and the file order handed to ``compare.py``.  Loaded by file path
like ``compare_bench`` (``benchmarks/`` is not an installed package).
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", REPO_ROOT / "benchmarks" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = pathlib.Path("/parent")
CHANGE = pathlib.Path("/change")


def _out_doc(correct=True, failures=()):
    return {"correct": correct, "workloads": {
        "fig12-faultfree": {"digests_equal": True, "failures": []},
        "storm-chaos": {"digests_equal": correct,
                        "failures": list(failures)},
    }}


def _record(calls, outcome=lambda call: (0, _out_doc())):
    """A launcher that records ``(cwd, argv)`` and ends the run as
    ``outcome(call index)`` says: ``(exit status, --out document or
    None for no file)``."""
    def run(argv, cwd, **kwargs):
        assert "check" not in kwargs  # a failed run must not raise
        returncode, doc = outcome(len(calls))
        calls.append((cwd, argv))
        if doc is not None:
            out = pathlib.Path(argv[argv.index("--out") + 1])
            out.write_text(json.dumps(doc))
        return subprocess.CompletedProcess(argv, returncode)
    return run


def test_sides_alternate_and_each_pair_runs_both():
    order = [p[3] for p in ab_pairs.plan(4, [1], [None])]
    assert order == ["ab", "ba", "ab", "ba"]
    # One block of pairs per (seed, workload), seeds outermost.
    blocks = [p[:2] for p in ab_pairs.plan(1, [1, 5], ["w1", "w2"])]
    assert blocks == [(1, "w1"), (1, "w2"), (5, "w1"), (5, "w2")]


def test_run_argv_is_the_benchmark_command_with_seed_and_out(tmp_path):
    out = tmp_path / "x.json"
    assert ab_pairs.run_argv(7, None, out) == [
        sys.executable, "benchmarks/perf/run.py",
        "--seed", "7", "--out", str(out),
    ]
    assert ab_pairs.run_argv(7, "storm-chaos", out)[-2:] == [
        "--workload", "storm-chaos",
    ]
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == [ab_pairs.RUN]


def test_run_pairs_launch_order_cwd_and_compare_order(tmp_path):
    calls = []
    groups, failed = ab_pairs.run_pairs(
        PARENT, CHANGE, pairs=3, seeds=[1], workloads=[None],
        out_dir=tmp_path, run=_record(calls),
    )
    assert failed == 0
    # Parent first, then change first, then parent first again.
    assert [cwd for cwd, _ in calls] == [
        PARENT, CHANGE, CHANGE, PARENT, PARENT, CHANGE,
    ]
    outs = [pathlib.Path(argv[argv.index("--out") + 1]).name
            for _, argv in calls]
    assert outs == [
        "s1-all-p00-a.json", "s1-all-p00-b.json",
        "s1-all-p01-b.json", "s1-all-p01-a.json",
        "s1-all-p02-a.json", "s1-all-p02-b.json",
    ]
    # compare.py wants parent, change, parent, change … whoever ran first.
    assert [[p.name for p in files] for files in groups] == [[
        "s1-all-p00-a.json", "s1-all-p00-b.json",
        "s1-all-p01-a.json", "s1-all-p01-b.json",
        "s1-all-p02-a.json", "s1-all-p02-b.json",
    ]]


def test_seeds_and_workloads_are_compared_separately(tmp_path):
    calls = []
    groups, _ = ab_pairs.run_pairs(
        PARENT, CHANGE, pairs=2, seeds=[1, 5],
        workloads=["fig12-faultfree", "storm-chaos"],
        out_dir=tmp_path, run=_record(calls),
    )
    assert len(calls) == 2 * 2 * 2 * 2
    assert [files[0].name for files in groups] == [
        "s1-fig12-faultfree-p00-a.json", "s1-storm-chaos-p00-a.json",
        "s5-fig12-faultfree-p00-a.json", "s5-storm-chaos-p00-a.json",
    ]
    assert all(len(files) == 4 for files in groups)
    for cwd, argv in calls:
        seed = argv[argv.index("--seed") + 1]
        workload = argv[argv.index("--workload") + 1]
        out = pathlib.Path(argv[argv.index("--out") + 1]).name
        assert out.startswith(f"s{seed}-{workload}-")
        assert out.endswith("-a.json" if cwd == PARENT else "-b.json")


def test_a_failed_run_is_reported_and_the_batch_goes_on(tmp_path, capsys):
    """Run 3 (pair 2, side b) exits 1 with a wrong digest, run 4 (pair
    2, side a) writes no ``--out`` file: every run still happens, each
    run's outcome is printed after it, and only the pair without a file
    leaves the comparison."""
    def outcome(call):
        if call == 2:
            return 1, _out_doc(False, ["storm-chaos seed 3: Traceback\nx"])
        if call == 3:
            return 1, None
        return 0, _out_doc()

    calls = []
    groups, failed = ab_pairs.run_pairs(
        PARENT, CHANGE, pairs=3, seeds=[1], workloads=[None],
        out_dir=tmp_path, run=_record(calls, outcome),
    )
    assert len(calls) == 6
    assert failed == 2
    assert [[p.name for p in files] for files in groups] == [[
        "s1-all-p00-a.json", "s1-all-p00-b.json",
        "s1-all-p02-a.json", "s1-all-p02-b.json",
    ]]
    out = capsys.readouterr().out
    pair2 = out.split("pair 2/3 side b\n")[1].split("pair 3/3")[0]
    assert "exit 1, correct False" in pair2
    assert "storm-chaos: digests_equal False, failures 1" in pair2
    assert "storm-chaos seed 3: Traceback" in pair2
    assert "pair 2/3 side a\n  exit 1, no --out file" in out
    assert out.count("exit 0, correct True") == 4


def _write_pairs(tmp_path, pairs):
    """``--out`` files for ``[((a_wall, a_hops), (b_wall, b_hops)), …]``
    in ``compare.py`` order; every other metric reads 1.0."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

    def doc(wall, hops):
        return {"workloads": {"fig12-faultfree": {"end_to_end": {
            m["name"]: {"value": 1.0} for m in spec["end_to_end"]
        } | {"wall_s": {"value": wall}, "flit_hops_per_s": {"value": hops}}}}}

    files = []
    for i, sides in enumerate(pairs):
        for side, (wall, hops) in zip("ab", sides):
            path = tmp_path / f"p{i}-{side}.json"
            path.write_text(json.dumps(doc(wall, hops)))
            files.append(path)
    return files


def _metric_line(out: str, metric: str) -> str:
    return next(ln for ln in out.splitlines() if f" {metric} " in ln)


def test_pairs_won_counts_by_metric_direction(tmp_path, capsys):
    ab_pairs.pairs_won(_write_pairs(tmp_path, [
        ((5.0, 100), (4.0, 120)),
        ((5.0, 100), (5.5, 90)),
        ((5.0, 100), (5.0, 100)),
    ]))
    out = capsys.readouterr().out
    assert "won 1, lost 1 of 3" in _metric_line(out, "wall_s")
    # Higher is better there.
    assert "won 1, lost 1 of 3" in _metric_line(out, "flit_hops_per_s")


def test_gain_needs_the_pairs_and_the_medians_apart(tmp_path, capsys):
    """Winning every pair is not a gain while the medians sit inside
    the parent's own quartile spread."""
    parent_wall = [5.0, 5.1, 4.9, 5.2, 4.8, 5.0, 5.1, 4.9, 5.05, 4.95]
    parent_hops = [100, 110, 90, 120, 80, 105, 95, 115, 85, 100]
    ab_pairs.pairs_won(_write_pairs(tmp_path, [
        ((wall, hops), (4.0, hops + 1))
        for wall, hops in zip(parent_wall, parent_hops)
    ]))
    out = capsys.readouterr().out
    assert _metric_line(out, "wall_s").endswith(
        "won 10, lost 0 of 10 pairs: gain"
    )
    assert _metric_line(out, "flit_hops_per_s").endswith(
        "won 10, lost 0 of 10 pairs: no gain"
    )
    # All ties: nothing won, medians equal.
    assert _metric_line(out, "setup_s").endswith(
        "won 0, lost 0 of 10 pairs: no gain"
    )
