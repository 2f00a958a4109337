"""Self-tests of the benchmark, at ``--quick`` scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``; not part
of the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import collections
import copy
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf import compare, layers, run, workloads
from benchmarks.perf.tracer import Tracer

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def invoke(capsys, tmp_path, *argv):
    """``run.main`` in-process: (exit code, stdout lines, --out document)."""
    out = tmp_path / "out.json"
    code = run.main(["--quick", "--out", str(out), *argv])
    return code, capsys.readouterr().out.splitlines(), json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced quick invocation of all four workloads."""
    out = tmp_path_factory.mktemp("perf") / "out.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/perf/run.py"), "--quick",
         "--trace", "1", "--seed", "1", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return done.stdout.splitlines(), json.loads(out.read_text())


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    names = WORKLOAD_NAMES + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert END_TO_END["setup_s"] == "s"


def test_every_named_metric_is_printed_with_its_unit_and_nothing_else(traced):
    lines, _ = traced
    assert "formula_mismatches: 0" in lines
    printed = {}
    for line in lines:
        header = re.match(r"== (\S+):", line)
        if header:
            section = printed.setdefault(header.group(1), {})
            continue
        row = re.match(r"  (\S+)\s+(\S+) (\S+)", line)
        if row and row.group(1) != "failed_share":
            section[row.group(1)] = row.group(3)
    assert list(printed) == WORKLOAD_NAMES
    for name in WORKLOAD_NAMES:
        assert printed[name] == {**END_TO_END, **PER_LAYER}, name


def test_result_line_and_out_document(traced):
    lines, doc = traced
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert doc["scale"] == "quick" and doc["formula_mismatches"] == 0
    for name in WORKLOAD_NAMES:
        entry = doc["workloads"][name]
        assert set(last["metrics"][name]) == set(PER_LAYER)
        assert set(entry["end_to_end"]) == set(END_TO_END)
        assert entry["repeats"] == run.MIN_REPEATS
        assert entry["unresolved_spans"] == []
        assert entry["digests_equal"] and entry["failed_share"] == 0
        assert all(v is not None for v in entry["per_layer"].values())
        for row in entry["end_to_end"].values():
            assert row["value"] > 0


def test_layer_predictions_hold_in_kind(traced):
    """The mechanisms each workload is there for are actually entered."""
    _, doc = traced
    layer = {n: doc["workloads"][n]["per_layer"] for n in WORKLOAD_NAMES}
    assert layer["fig12-faultfree"]["route_cache.epoch_clears"] == 0
    assert layer["faulted-recovery"]["route_cache.epoch_clears"] > 0
    assert layer["idle-longhorizon"]["engine.ff_share"] > 0.7
    assert layer["idle-longhorizon"]["parallel.jobs2_s"] > 0
    for name in WORKLOAD_NAMES:
        only_storm = name == "storm-chaos"
        assert (layer[name]["invariants.audit_n"] > 0) == only_storm
        assert (layer[name]["chaos.hook_n"] > 0) == only_storm
        assert (layer[name]["reconfig.hook_n"] > 0) == only_storm
        # The tracer's call count and the engine's own counter agree.
        assert (layer[name]["routing.decide_n"]
                == doc["workloads"][name]["counts"]["header_decisions"])


def test_self_times_add_up_to_the_traced_wall(traced):
    _, doc = traced
    for name in WORKLOAD_NAMES:
        trace = json.loads(
            (ROOT / f"benchmarks/perf/out/trace-{name}.json").read_text()
        )
        spans = trace["spans"]
        runs = [s for s in spans if s["name"] == "run"]

        def root(span):
            while span["parent"] is not None:
                span = spans[span["parent"]]
            return span

        inside = {s["id"] for s in spans if root(s)["name"] == "run"}
        covered = sum(s["self_ns"] for s in spans if s["id"] in inside)
        covered += sum(row["self_ns"] for row in trace["aggregates"]
                       if row["span"] in inside)
        wall_ns = sum(s["end_ns"] - s["start_ns"] for s in runs)
        # Exact by construction of self time ...
        assert covered == wall_ns, name
        # ... and equal to the independently clocked wall but for the
        # tracer's own bookkeeping around each run span.
        assert wall_ns / 1e9 == pytest.approx(
            doc["workloads"][name]["traced_wall_s"], rel=0.02
        )


def test_same_seed_same_digest_other_seed_other_digest(capsys, tmp_path, traced):
    _, first = traced
    _, lines, again = invoke(capsys, tmp_path, "--seed", "1",
                             "--workload", "faulted-recovery")
    _, _, other = invoke(capsys, tmp_path, "--seed", "2",
                         "--workload", "faulted-recovery")
    digest = first["workloads"]["faulted-recovery"]["sim_digest"]
    assert again["workloads"]["faulted-recovery"]["sim_digest"] == digest
    assert other["workloads"]["faulted-recovery"]["sim_digest"] != digest
    # Driver mode: one workload, untraced -> exactly the end-to-end metrics.
    last = json.loads(lines[-1])
    assert {k: v["unit"] for k, v in last["metrics"].items()} == END_TO_END


def _small_run():
    from repro import NetworkSimulator, SimulationConfig

    cfg = SimulationConfig(k=4, n=2, offered_load=0.1, warmup_cycles=50,
                           measure_cycles=150, drain_cycles=1000)
    return NetworkSimulator(cfg).run()


def test_hooks_are_removed_after_a_traced_run():
    originals = [
        (hook, vars(layers._resolve(hook.owner))[hook.attr])
        for hook in layers.HOOKS
    ]
    tracer = Tracer()
    installed = layers.Installed(tracer)
    try:
        _small_run()
    finally:
        installed.remove()
    assert installed.unresolved == []
    seen = tracer.totals()
    assert seen["engine.step"]["count"] > 0
    for hook, original in originals:
        assert vars(layers._resolve(hook.owner))[hook.attr] is original, hook
    _small_run()
    assert tracer.totals() == seen


def test_moved_private_hook_is_reported_not_fatal(monkeypatch):
    moved = layers.Hook("engine.phase.traffic", layers._ENGINE,
                        "_phase_that_moved", private=True)
    kept = tuple(h for h in layers.HOOKS if h.span != moved.span)
    monkeypatch.setattr(layers, "HOOKS", kept + (moved,))
    installed = layers.Installed(Tracer())
    installed.remove()
    assert installed.unresolved == ["engine.phase.traffic"]
    derived = layers.derive(installed, collections.Counter())
    assert derived["engine.phase.traffic_s"] is None
    assert derived["engine.phase.data_movement_s"] == 0

    public = layers.Hook("engine.step", layers._ENGINE, "step_that_moved")
    monkeypatch.setattr(layers, "HOOKS", (public,))
    with pytest.raises(LookupError):
        layers.Installed(Tracer())


def test_compare_verdicts_and_quick_refusal(tmp_path, traced, capsys):
    _, doc = traced
    quick = tmp_path / "quick.json"
    quick.write_text(json.dumps(doc))
    with pytest.raises(SystemExit):
        compare.main([str(quick), str(quick)])

    parent = copy.deepcopy(doc)
    parent["scale"] = "full"
    for entry in parent["workloads"].values():
        for row in entry["end_to_end"].values():
            # Tight repeats, so that verdicts depend on the medians only.
            row.update({k: row["value"] for k in ("min", "max") if k in row})
    slower = copy.deepcopy(parent)
    slower["workloads"]["storm-chaos"]["end_to_end"]["wall_s"]["value"] *= 2
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([str(a), str(b)]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [r[:2] + r[-2:-1] for r in rows if "regressed" in r] == [
        ["storm-chaos", "wall_s", "regressed"]
    ]
    assert compare.main([str(b), str(a)]) == 0
    assert "improved" in capsys.readouterr().out

    noisy = copy.deepcopy(parent)
    row = noisy["workloads"]["storm-chaos"]["end_to_end"]["wall_s"]
    row["min"], row["max"] = row["value"] * 0.5, row["value"] * 1.5
    n = tmp_path / "n.json"
    n.write_text(json.dumps(noisy))
    assert compare.main([str(n), str(a)]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: a nonzero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks/perf", tmp_path / "benchmarks/perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "storm-chaos", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
