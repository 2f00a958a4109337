"""The repository benchmark: four workloads, end to end and per layer.

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--seconds N]
                                   [--trace 0|1] [--out FILE] [--quick]

Runs a correctness preflight, then repeats of each workload's body, each
in a fresh child interpreter, strictly one at a time and round-robin
across workloads; prints every metric by name with its unit, checks the
outputs, writes one JSON (``--out``) and ends with the one-line JSON
object the driver reads.  Metric names, units and bounds come from
``BENCHMARK.json``; README.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Script invocation (the driver's): make ``repro`` and this package
# importable here and in the children without touching the environment
# of whoever called us.
IMPORT_PATH = [str(ROOT), str(ROOT / "src")]
sys.path[:0] = [p for p in IMPORT_PATH if p not in sys.path]

OUT_DIR = HERE / "out"
#: Deterministic for a seed; host-time metrics are medians over repeats.
SIMULATED_METRICS = ("sim_latency_mean", "sim_latency_p99", "sim_throughput",
                     "delivery_ratio")
MIN_REPEATS = 2
#: Reported for a per-layer metric whose span did not resolve, on the
#: driver's result line only (its values must be numbers); ``--out``
#: carries ``null`` and the ``unresolved_spans`` list.
UNRESOLVED = -1


def preflight() -> int:
    """Closed-form Section 2.2 latencies and the validation suite.

    The only reference the repository holds; the error against it must
    be zero.  Returns the number of mismatching rows / failed checks.
    """
    from repro.experiments import formula_table
    from repro.sim import validation

    rows = formula_table.run(link_grid=(1, 2, 4, 7), length_grid=(1, 8, 32),
                             k_grid=(1, 3))
    return (sum(not row.match for row in rows)
            + sum(not check.passed for check in validation.validate()))


def run_child(workload: str, seed: int, quick: bool, trace_out=None) -> dict:
    cmd = [sys.executable, "-m", "benchmarks.perf.child",
           "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        IMPORT_PATH + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def enough(repeats: list, seconds: float) -> bool:
    """Stop once another body would overshoot ``seconds`` by more than
    it undershoots now (and at least ``MIN_REPEATS`` ran, so that the
    digest of one repeat is checked against another)."""
    if len(repeats) < MIN_REPEATS:
        return False
    walls = [r["wall_s"] for r in repeats]
    return sum(walls) >= seconds - statistics.median(walls) / 2


def end_to_end(repeats: list) -> dict:
    """End-to-end metrics of one workload from its untraced repeats."""
    first = repeats[0]
    samples = {
        "wall_s": [r["wall_s"] for r in repeats],
        "flit_hops_per_s": [r["flit_hops"] / r["wall_s"] for r in repeats],
        "sim_cycles_per_s": [r["sim_cycles"] / r["wall_s"] for r in repeats],
        "setup_s": [r["setup_s"] for r in repeats],
        "peak_rss_mb": [r["peak_rss_mb"] for r in repeats],
    }
    out = {
        name: {"value": statistics.median(values), "min": min(values),
               "max": max(values), "n": len(values)}
        for name, values in samples.items()
    }
    for name in SIMULATED_METRICS:
        out[name] = {"value": first[name]}
    return out


def summarise(spec: dict, repeats: list, traced) -> dict:
    """One workload's entry of the ``--out`` document."""
    runs = repeats + ([traced] if traced else [])
    entry = {
        "repeats": len(repeats),
        "end_to_end": end_to_end(repeats),
        "latency_samples": repeats[0]["latency_samples"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "sim_digest": runs[0]["sim_digest"],
        "digests_equal": len({r["sim_digest"] for r in runs}) == 1,
        "job_wall_s": [r["job_wall_s"] for r in repeats],
        "counts": repeats[0]["counts"],
    }
    entry["failed_share"] = entry["failed"] / entry["attempted"]
    if traced:
        layer = traced["per_layer"]
        layer["trace.overhead"] = (
            traced["wall_s"] / entry["end_to_end"]["wall_s"]["value"] - 1
        )
        if "parallel.jobs2_s" in layer:
            serial = statistics.median(
                r["construct_s"] + r["wall_s"] for r in repeats
            )
            layer["parallel.serial_s"] = serial
            layer["parallel.jobs2_speedup"] = serial / layer["parallel.jobs2_s"]
        for metric in spec["per_layer"]:
            # The pool probe runs on one workload only; elsewhere its
            # metrics read 0, like every layer a workload never enters.
            layer.setdefault(metric["name"], 0)
        entry["per_layer"] = layer
        entry["unresolved_spans"] = traced["unresolved_spans"]
        entry["traced_wall_s"] = traced["wall_s"]
    return entry


def print_entry(name: str, entry: dict, units: dict) -> None:
    differs = "" if entry["digests_equal"] else " DIFFERS BETWEEN REPEATS"
    print(f"== {name}: {entry['repeats']} repeats, "
          f"{entry['latency_samples']} latency samples, "
          f"sim_digest {entry['sim_digest'][:16]}{differs}")
    for metric, row in entry["end_to_end"].items():
        spread = (f"  (min {row['min']:.6g}  max {row['max']:.6g}  "
                  f"n={row['n']})" if "n" in row else "")
        print(f"  {metric:<34}{row['value']:>16.6g} {units[metric]}{spread}")
    print(f"  {'failed_share':<34}{entry['failed_share']:>16.6g} "
          f"({entry['failed']} of {entry['attempted']} simulations)")
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")
    for metric, value in entry.get("per_layer", {}).items():
        shown = "unresolved" if value is None else f"{value:.6g}"
        print(f"  {metric:<34}{shown:>16} {units[metric]}")
    if entry.get("unresolved_spans"):
        print(f"  unresolved_spans: {entry['unresolved_spans']}")


def line_metrics(spec: dict, entry: dict, trace: bool) -> dict:
    """The ``metrics`` object of the driver's result line."""
    if not trace:
        return {
            m["name"]: {"value": entry["end_to_end"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    layer = entry["per_layer"]
    return {
        m["name"]: {
            "value": UNRESOLVED if layer[m["name"]] is None else layer[m["name"]],
            "unit": m["unit"],
        }
        for m in spec["per_layer"]
    }


def host_info() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "REPRO_DATA_KERNEL": os.environ.get("REPRO_DATA_KERNEL"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one more, traced, repeat per workload and "
                             "the per-layer metrics on the result line")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="self-test scale (5-ary 2-cube, 2 repeats)")
    args = parser.parse_args(argv)
    selected = [args.workload] if args.workload else names
    seconds = 0 if args.quick else args.seconds

    mismatches = preflight()
    print(f"formula_mismatches: {mismatches}")

    repeats = {name: [] for name in selected}
    pending = list(selected)
    while pending:
        for name in list(pending):
            repeats[name].append(run_child(name, args.seed, args.quick))
            if enough(repeats[name], seconds):
                pending.remove(name)
    traced = dict.fromkeys(selected)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        for name in selected:
            traced[name] = run_child(name, args.seed, args.quick,
                                     OUT_DIR / f"trace-{name}.json")

    report = {
        name: summarise(spec, repeats[name], traced[name]) for name in selected
    }
    correct = mismatches == 0 and all(
        entry["digests_equal"] and not entry["failed"]
        for entry in report.values()
    )
    attempted = sum(entry["attempted"] for entry in report.values())
    # A wrong answer fast is worth nothing: if the preflight or a digest
    # check failed, every operation counts as failed.
    failed = (sum(entry["failed"] for entry in report.values())
              if correct else attempted)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, entry in report.items():
        print_entry(name, entry, units)
    out_path = args.out
    if out_path is None:
        OUT_DIR.mkdir(exist_ok=True)
        out_path = OUT_DIR / (
            f"bench-{args.workload or 'all'}-seed{args.seed}.json"
        )
    out_path.write_text(json.dumps({
        "scale": "quick" if args.quick else "full",
        "seed": args.seed,
        "seconds": seconds,
        "formula_mismatches": mismatches,
        "correct": correct,
        "host": host_info(),
        "workloads": report,
    }, indent=1) + "\n")
    print(f"wrote {out_path}")

    if args.workload:
        metrics = line_metrics(spec, report[args.workload], args.trace)
    else:
        metrics = {name: line_metrics(spec, entry, args.trace)
                   for name, entry in report.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
