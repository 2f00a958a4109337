"""Alternating parent/change pairs of the repository benchmark.

    python3 benchmarks/ab_pairs.py --parent HEAD~1 [--pairs 10]
        [--workload fig12-faultfree ...] [--seed 1 5] [--out-dir DIR]

Automates the procedure of ``benchmarks/perf/README.md`` ("Comparing two
commits"): check the parent revision out with ``git worktree add`` in a
temporary directory, run ``benchmarks/perf/run.py`` — each side's own,
unmodified copy — ``--pairs`` times per seed on both sides, alternating
which side goes first, then hand the ``--out`` files of each seed to
``benchmarks/perf/compare.py`` in pair order, count the pairs the
change won and state the README's claim rule per metric: ``gain`` when
the change won at least nine tenths of the decided pairs and the
medians are apart, in the better direction, by more than the parent's
own quartile spread; otherwise ``no gain``.

A run that fails does not stop the batch: each run's exit status and,
from its ``--out`` file, whether it was correct and each workload's
digest check and failures are printed after it, a pair missing an
``--out`` file is left out of its comparison, and the exit status is
nonzero when any run failed.

Seeds are compared separately: mixing them would count seed-to-seed
spread as run-to-run noise.  Without ``--workload`` every run covers all
four workloads; with a list, each named workload gets its own runs and
its own comparison.  The change side is the working tree this file
lives in, as it is on disk.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUN = "benchmarks/perf/run.py"
COMPARE = "benchmarks/perf/compare.py"

# Script invocation puts ``benchmarks/`` first on the path, not the root.
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from benchmarks.perf.compare import side_stats  # noqa: E402


def plan(pairs: int, seeds: Sequence[int],
         workloads: Sequence[Optional[str]],
         ) -> Iterator[Tuple[int, Optional[str], int, str]]:
    """Every pair to run, in running order: (seed, workload or ``None``
    for all, pair index, sides in the order they run).

    Even pairs run the parent (``a``) first, odd pairs the change
    (``b``), so slow drift of the host hits both sides alike.
    """
    for seed in seeds:
        for workload in workloads:
            for i in range(pairs):
                yield seed, workload, i, "ab" if i % 2 == 0 else "ba"


def out_path(out_dir: pathlib.Path, seed: int, workload: Optional[str],
             pair: int, side: str) -> pathlib.Path:
    return out_dir / f"s{seed}-{workload or 'all'}-p{pair:02d}-{side}.json"


def run_argv(seed: int, workload: Optional[str],
             out: pathlib.Path) -> List[str]:
    """The benchmark command of ``BENCHMARK.json`` plus one run's options."""
    argv = [sys.executable, RUN, "--seed", str(seed), "--out", str(out)]
    if workload is not None:
        argv += ["--workload", workload]
    return argv


def run_outcome(returncode: int, out: pathlib.Path) -> Tuple[bool, str]:
    """Whether one run succeeded, and the lines that say so: its exit
    status, then from its ``--out`` file ``correct`` and, per workload,
    ``digests_equal`` and the first line of each failure."""
    if not out.exists():
        return False, f"  exit {returncode}, no --out file"
    doc = json.loads(out.read_text())
    lines = [f"  exit {returncode}, correct {doc['correct']}"]
    for name, entry in doc["workloads"].items():
        lines.append(f"  {name}: digests_equal {entry['digests_equal']}, "
                     f"failures {len(entry['failures'])}")
        lines += [f"    {failure.splitlines()[0]}"
                  for failure in entry["failures"]]
    return returncode == 0 and doc["correct"], "\n".join(lines)


def run_pairs(parent: pathlib.Path, change: pathlib.Path, pairs: int,
              seeds: Sequence[int], workloads: Sequence[Optional[str]],
              out_dir: pathlib.Path, run: Callable = subprocess.run,
              ) -> Tuple[List[List[pathlib.Path]], int]:
    """Run every planned pair; return one ``compare.py`` argument list
    (``A1 B1 A2 B2 …``) per (seed, workload), without the pairs missing
    an ``--out`` file, and the number of runs that failed."""
    roots = {"a": parent, "b": change}
    groups: dict = {}
    failed = 0
    for seed, workload, i, order in plan(pairs, seeds, workloads):
        outs = {side: out_path(out_dir, seed, workload, i, side)
                for side in "ab"}
        for side in order:
            print(f"seed {seed} {workload or 'all'} pair {i + 1}/{pairs} "
                  f"side {side}", flush=True)
            outs[side].unlink(missing_ok=True)
            done = run(run_argv(seed, workload, outs[side]), cwd=roots[side],
                       stdout=subprocess.DEVNULL)
            ok, report = run_outcome(done.returncode, outs[side])
            failed += not ok
            print(report, flush=True)
        files = groups.setdefault((seed, workload), [])
        if all(out.exists() for out in outs.values()):
            files.extend(outs.values())
    return [files for files in groups.values() if files], failed


def pairs_won(files: Sequence[pathlib.Path]) -> None:
    """Per (workload, end-to-end metric): pairs in which the change read
    better than the parent (ties count for neither), and whether that
    is a gain by the README's rule — nine tenths of the decided pairs
    won and the medians apart by more than the parent's own spread
    (``compare.side_stats``: Q3 − Q1 from four files up)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = [json.loads(p.read_text()) for p in files]
    parent, change = docs[0::2], docs[1::2]
    for workload in docs[0]["workloads"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sign = 1 if metric["better"] == "lower" else -1
            a_median, a_spread, a_values = side_stats(parent, workload, name)
            b_median, _, b_values = side_stats(change, workload, name)
            deltas = [sign * (b - a) for a, b in zip(a_values, b_values)]
            won = sum(d < 0 for d in deltas)
            lost = sum(d > 0 for d in deltas)
            gain = won >= 0.9 * (won + lost) and (
                sign * (a_median - b_median) > a_spread * abs(a_median)
            )
            print(f"{workload:<18}{name:<18} change won {won}, lost {lost} "
                  f"of {len(deltas)} pairs: {'gain' if gain else 'no gain'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per seed (default 10)")
    parser.add_argument("--workload", nargs="+", default=[None],
                        help="workloads to run one by one (default: all, "
                             "interleaved inside each run)")
    parser.add_argument("--seed", nargs="+", type=int, default=[1])
    parser.add_argument("--out-dir", type=pathlib.Path,
                        help="where the --out files go (default: a new "
                             "temporary directory, printed at the end)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out_dir = args.out_dir or pathlib.Path(tempfile.mkdtemp(prefix="ab-out-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_dir = out_dir.resolve()

    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent = pathlib.Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(parent),
                        args.parent], cwd=ROOT, check=True)
        try:
            groups, failed = run_pairs(parent, ROOT, args.pairs, args.seed,
                                       args.workload, out_dir)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(parent)], cwd=ROOT, check=True)
    status = 1 if failed else 0
    for files in groups:
        print()
        status |= subprocess.run(
            [sys.executable, COMPARE, *map(str, files)], cwd=ROOT
        ).returncode
        pairs_won(files)
    print(f"\nrun files: {out_dir}")
    if failed:
        print(f"{failed} run(s) failed; see the lines after each run")
    return status


if __name__ == "__main__":
    sys.exit(main())
