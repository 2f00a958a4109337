"""Compare two ``BENCH_engine.json`` snapshots workload by workload.

Usage::

    python benchmarks/compare_bench.py BASELINE.json CURRENT.json \
        [--threshold 0.05]

Prints a per-workload table of simulated cycles per second (baseline,
current, and the relative delta) and exits nonzero when any workload
present in both files regressed by more than ``--threshold`` (default
5%).  Speedups never fail; workloads present on only one side are
reported but ignored for the verdict, so adding or retiring a workload
does not break the comparison.

``--key`` selects which numeric field is compared (default
``cycles_per_sec``).  ``--key events_per_sec`` compares interpreter
cost per simulation event (flit hops + ejections + header decisions)
instead — unlike cycles/s it is insensitive to how many empty cycles
the steady-state fast-forward skipped, so it isolates hot-path cost
from scheduling-efficiency changes (hops applied to streaming worms in
closed form still count as events).  Saturation snapshots from
``repro.experiments.saturation`` share the same shape, so
``--key knee_throughput`` diffs two ``BENCH_saturation.json`` files.
``--events`` is shorthand for ``--key events_per_sec``.  Which way a
key is better is a property of the key (:data:`LOWER_IS_BETTER`), not
of the invocation: ``--key construct_kb`` regresses when it *rises*.

CI runs this three times against the committed snapshot: once over
every workload informationally (the numbers are machine-dependent, so
small deltas are hints, not verdicts), once as a hard gate with
``--workloads tp-high,dp-high,tp-k3-recovery --threshold 0.25`` — a
saturated (data-path) or control-heavy (header-hop) workload losing
more than a quarter of its cycles/s is an engine regression, not runner
noise — and once as a hard gate with
``--key construct_kb --threshold 0.25``: a simulator's construction
footprint is deterministic on one Python version, so it cannot flake.
Run it locally against a baseline produced on the same machine to
validate an engine optimisation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional


def load_rows(path: pathlib.Path) -> dict:
    """Map workload name -> row for one BENCH_engine.json file."""
    report = json.loads(path.read_text())
    return {row["workload"]: row for row in report["workloads"]}


def compare(baseline: dict, current: dict, threshold: float,
            key: str = "cycles_per_sec",
            workloads: Optional[List[str]] = None):
    """Per-workload comparison rows plus the list of regressions.

    Returns ``(rows, regressions)``; each row is a dict with the
    workload name, both ``key`` figures (``None`` when the workload
    is missing on that side), and ``delta`` (relative change, ``None``
    unless present on both sides).  ``regressions`` lists the names
    whose figure got worse by more than ``threshold`` — dropped, or for
    a :data:`LOWER_IS_BETTER` key rose.  ``workloads``
    restricts the comparison (and therefore the verdict) to the named
    subset — the CI perf gate uses it to assert only on the gated
    workloads, whose throughput is dominated by engine work rather
    than scheduling noise.
    """
    names = set(baseline) | set(current)
    if workloads is not None:
        names &= set(workloads)
    rows: List[dict] = []
    regressions: List[str] = []
    for name in sorted(names):
        base = baseline.get(name)
        cur = current.get(name)
        base_cps: Optional[float] = base and base.get(key)
        cur_cps: Optional[float] = cur and cur.get(key)
        delta: Optional[float] = None
        if base_cps and cur_cps:
            delta = (cur_cps - base_cps) / base_cps
            worse = delta if key in LOWER_IS_BETTER else -delta
            if worse > threshold:
                regressions.append(name)
        rows.append({
            "workload": name,
            "baseline": base_cps,
            "current": cur_cps,
            "delta": delta,
        })
    return rows, regressions


#: Keys whose smaller figure is the better one; every other key is a
#: rate or a ratio, where higher is better.
LOWER_IS_BETTER = frozenset({"construct_kb", "wall_s"})


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return f"{'-':>12}"
    # Saturation keys are O(0.1) flits/node/cycle; cycles/sec are large.
    if abs(value) < 100:
        return f"{value:>12,.4f}"
    return f"{value:>12,.0f}"


def render(rows: List[dict], regressions: List[str],
           threshold: float) -> str:
    header = (
        f"{'workload':<20} {'baseline':>12} {'current':>12} {'delta':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        base = _fmt(row["baseline"])
        cur = _fmt(row["current"])
        if row["delta"] is None:
            delta = f"{'-':>8}"
        else:
            mark = " *" if row["workload"] in regressions else ""
            delta = f"{row['delta']:>+8.1%}{mark}"
        lines.append(f"{row['workload']:<20} {base} {cur} {delta}")
    lines.append("-" * len(header))
    if regressions:
        lines.append(
            f"FAIL: {len(regressions)} workload(s) regressed more than "
            f"{threshold:.0%}: {', '.join(regressions)}"
        )
    else:
        lines.append(f"PASS: no workload regressed more than {threshold:.0%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_engine.json files (cycles/sec)."
    )
    parser.add_argument("baseline", type=pathlib.Path,
                        help="baseline BENCH_engine.json")
    parser.add_argument("current", type=pathlib.Path,
                        help="current BENCH_engine.json")
    parser.add_argument(
        "--threshold", type=float, default=0.05,
        help="max tolerated relative throughput drop (default: 0.05)",
    )
    parser.add_argument(
        "--key", default="cycles_per_sec",
        help=(
            "numeric row field to compare (default: cycles_per_sec; "
            "use knee_throughput for BENCH_saturation.json)"
        ),
    )
    parser.add_argument(
        "--events", action="store_true",
        help=(
            "shorthand for --key events_per_sec: compare per-event "
            "interpreter cost (flit hops + ejections + header "
            "decisions per wall second) instead of cycles/s"
        ),
    )
    parser.add_argument(
        "--workloads", default=None,
        help=(
            "comma-separated workload names to compare; everything "
            "else is excluded from the table and the verdict "
            "(CI gates only the hot-path workloads this way)"
        ),
    )
    args = parser.parse_args(argv)
    key = "events_per_sec" if args.events else args.key
    workloads = (
        [w for w in args.workloads.split(",") if w]
        if args.workloads else None
    )
    rows, regressions = compare(
        load_rows(args.baseline), load_rows(args.current),
        args.threshold, key=key, workloads=workloads,
    )
    print(render(rows, regressions, args.threshold))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
