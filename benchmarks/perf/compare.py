"""Compare benchmark outputs of two commits, metric by metric.

    python3 benchmarks/perf/compare.py A.json B.json [A2.json B2.json ...]

Arguments are ``run.py --out`` files and alternate sides: first, third,
… are side A (the parent), second, fourth, … side B (the change), in
the order the alternating pairs were run.  One row per (workload,
end-to-end metric): both medians with the number of values they rest
on, the relative change, the bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, so "no regression" cannot be shown (unless every B value
  is better than every A value);
* ``improved``   — B's median is better by more than the bound;
* ``unchanged``  — otherwise.

Spread is (Q3 − Q1) / median over a side's files; with fewer than four
files it is (max − min) / median, taken over the repeats inside the file
when there is only one.  Exit status is 1 when any row regressed or B
failed more simulations than A.  ``--quick`` outputs are refused: they
are sized for the self-tests, not for timing.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(path: str) -> dict:
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("scale") != "full":
        raise SystemExit(f"{path}: scale is {doc.get('scale')!r}; only "
                         "full-scale outputs can be compared")
    return doc


def side_stats(files: list, workload: str, metric: str):
    """``(median, spread, values)`` of one metric over one side's files."""
    rows = [f["workloads"][workload]["end_to_end"][metric] for f in files]
    values = [row["value"] for row in rows]
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    elif len(values) > 1:
        width = max(values) - min(values)
    else:
        width = rows[0].get("max", values[0]) - rows[0].get("min", values[0])
    return median, (width / abs(median) if median else 0.0), values


def verdict(a, b, better: str, bound: float) -> tuple:
    """``(relative change in the worse direction, verdict)``."""
    (a_med, a_spread, a_vals), (b_med, b_spread, b_vals) = a, b
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if worse > bound:
        return worse, "regressed"
    if max(a_spread, b_spread) > bound:
        all_better = (
            max(b_vals) < min(a_vals) if better == "lower"
            else min(b_vals) > max(a_vals)
        )
        if not all_better:
            return worse, "unresolved"
    return worse, "improved" if worse < -bound else "unchanged"


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2 or len(paths) % 2:
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a = [load(p) for p in paths[0::2]]
    side_b = [load(p) for p in paths[1::2]]
    regressed = False
    print(f"{'workload':<18}{'metric':<18}{'A median':>14}{'B median':>14}"
          f"{'worse by':>10}{'bound':>7}{'spread A/B':>14}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in f["workloads"] for f in side_a + side_b):
            continue
        for metric in spec["end_to_end"]:
            a = side_stats(side_a, workload, metric["name"])
            b = side_stats(side_b, workload, metric["name"])
            worse, word = verdict(a, b, metric["better"], metric["bound"])
            regressed |= word == "regressed"
            print(f"{workload:<18}{metric['name']:<18}"
                  f"{a[0]:>14.6g}{b[0]:>14.6g}{worse:>+10.2%}"
                  f"{metric['bound']:>7.3f}"
                  f"{a[1]:>7.1%}{b[1]:>7.1%}  {word}"
                  f"  (n={len(a[2])}/{len(b[2])})")
        entries_a = [f["workloads"][workload] for f in side_a]
        entries_b = [f["workloads"][workload] for f in side_b]
        failed_a = sum(e["failed"] for e in entries_a)
        failed_b = sum(e["failed"] for e in entries_b)
        attempted_a = sum(e["attempted"] for e in entries_a)
        attempted_b = sum(e["attempted"] for e in entries_b)
        more_failures = failed_b * attempted_a > failed_a * attempted_b
        regressed |= more_failures
        digests_equal = (
            [(f["seed"], e["sim_digest"]) for f, e in zip(side_a, entries_a)]
            == [(f["seed"], e["sim_digest"]) for f, e in zip(side_b, entries_b)]
        )
        print(f"{workload:<18}{'failed_share':<18}"
              f"{f'{failed_a}/{attempted_a}':>14}{f'{failed_b}/{attempted_b}':>14}"
              f"{'':>31}  {'regressed' if more_failures else 'unchanged'}")
        print(f"{workload:<18}{'sim_digest':<18}"
              f"{'equal' if digests_equal else 'DIFFERENT':>28}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
