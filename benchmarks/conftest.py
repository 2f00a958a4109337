"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's evaluation artifacts
(see DESIGN.md's experiment index) and prints the series/table the
paper reports, so curve *shapes* can be compared directly.  The
pytest-benchmark timing wraps the full experiment.

Scale control:

* default — reduced scale (8-ary 2-cube, shortened runs, fault counts
  scaled by the node ratio): the whole suite completes in laptop time;
* ``REPRO_PAPER_SCALE=1`` — the paper's 16-ary 2-cube parameters;
* ``REPRO_QUICK=1`` — tiny smoke-test scale for CI.
"""

from __future__ import annotations

import pathlib
import sys

from repro.experiments import experiment_scale

#: Rendered reports land in ``results/<scale>/`` (one file per
#: benchmark) in addition to being written to the terminal past
#: pytest's capture; only the reduced-scale ones are tracked.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_and_report(benchmark, runner, renderer, name: str):
    """Benchmark ``runner`` once; print and persist its report."""
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    report = renderer(result)
    # Bypass pytest's capture so the figure tables always appear in the
    # benchmark run's output, mirroring how the paper's plots accompany
    # the measurements.
    sys.__stdout__.write("\n" + report + "\n")
    sys.__stdout__.flush()
    out = RESULTS_DIR / experiment_scale().name
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text(report + "\n")
    return result
