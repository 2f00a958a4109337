"""Chaos and storm run records pinned across commits.

``golden_storm_records.json`` holds the sha256 of the sorted-key JSON of
``dataclasses.asdict(record)`` for sixteen runs through the harness's
two entry points: ``run_storm_one`` over {gridlock, linkstorm} ×
{tp-only, reconfig} × two seeds and ``run_one`` over {tp, dp,
det-naive} × two seeds at a reduced ``measure_cycles``, plus one
full-default ``det-naive`` and one full-default ``gridlock/reconfig``
run.  These are the records ``BENCH_resilience.json`` and the
``storm-chaos`` benchmark workload are computed from, so a refactor of
``repro.faults.chaos`` may not move them.  When a PR *means* to change
what a run records, regenerate the file and say why in the PR:

    PYTHONPATH=src python -m tests.faults.test_golden_records
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.faults.chaos import ChaosSpec, StormSpec, run_one, run_storm_one

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_storm_records.json")
ROOT = pathlib.Path(__file__).resolve().parents[2]

SEEDS = (0, 1)


def _pinned_runs() -> dict:
    """name -> zero-argument callable producing one run record."""
    storm = StormSpec(measure_cycles=500)
    spec = ChaosSpec(measure_cycles=400)
    runs = {}
    for scenario in ("gridlock", "linkstorm"):
        for arm in ("tp-only", "reconfig"):
            for seed in SEEDS:
                runs[f"storm/{scenario}/{arm}/{seed}"] = (
                    run_storm_one, (storm, scenario, seed, arm)
                )
    for protocol in ("tp", "dp", "det-naive"):
        for seed in SEEDS:
            runs[f"chaos/{protocol}/{seed}"] = (
                run_one, (spec, seed, protocol)
            )
    runs["chaos/det-naive/18/full"] = (run_one, (ChaosSpec(), 18, "det-naive"))
    runs["storm/gridlock/reconfig/0/full"] = (
        run_storm_one, (StormSpec(), "gridlock", 0, "reconfig")
    )
    return runs


PINNED_RUNS = _pinned_runs()


def record_digest(name: str) -> str:
    """sha256 of the sorted-key JSON of every field of the run record."""
    function, args = PINNED_RUNS[name]
    blob = json.dumps(dataclasses.asdict(function(*args)), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_file_covers_the_pinned_runs():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(PINNED_RUNS)


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_records_match_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert record_digest(name) == golden[name], (
        f"run record {name!r} changed; if intended, regenerate with: "
        "PYTHONPATH=src python -m tests.faults.test_golden_records"
    )


def _digests_in_fresh_interpreter(names, hash_seed: str) -> list:
    """The record digests of ``names``, computed by a new interpreter
    whose string hashes are salted with ``hash_seed``."""
    script = (
        "import json, sys\n"
        "from tests.faults.test_golden_records import record_digest\n"
        "print(json.dumps([record_digest(n) for n in sys.argv[1:]]))\n"
    )
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *names], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_run_records_do_not_depend_on_hash_order():
    """A storm run through reconfiguration and a deadlocking chaos run
    (teardown, kill walks, victim ejection) record the same under two
    string-hash salts: nothing they record may follow the iteration
    order of a set of strings or objects."""
    names = ["storm/gridlock/reconfig/0", "chaos/det-naive/0"]
    golden = json.loads(GOLDEN_PATH.read_text())
    for hash_seed in ("1", "2"):
        assert _digests_in_fresh_interpreter(names, hash_seed) == [
            golden[name] for name in names
        ], f"PYTHONHASHSEED={hash_seed}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: record_digest(name) for name in sorted(PINNED_RUNS)},
        indent=2,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH}")
