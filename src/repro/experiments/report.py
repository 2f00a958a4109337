"""ASCII rendering of experiment results.

The benchmark harness prints each figure as aligned tables: one row per
offered-load point and one column group per series, mirroring the
latency-vs-throughput layout of the paper's plots so the curve shapes
(who wins, where saturation falls) can be read directly from the text
output.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.experiments.common import Experiment, Series


def _fmt(value: float, digits: int = 1) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.{digits}f}"


def render_series_table(series: Sequence[Series],
                        title: str = "") -> str:
    """Latency/throughput table with one row per load point."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = ["offered"]
    for s in series:
        header.append(f"{s.label} lat")
        header.append(f"{s.label} tput")
    widths = [max(9, len(h) + 1) for h in header]
    lines.append("".join(h.rjust(w) for h, w in zip(header, widths)))
    n_points = max((len(s.points) for s in series), default=0)
    for i in range(n_points):
        row = []
        offered = next(
            (s.points[i].offered_load for s in series if i < len(s.points)),
            float("nan"),
        )
        row.append(_fmt(offered, 3))
        for s in series:
            if i < len(s.points):
                row.append(_fmt(s.points[i].latency, 1))
                row.append(_fmt(s.points[i].throughput, 4))
            else:
                row.append("-")
                row.append("-")
        lines.append("".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_saturation_summary(series: Sequence[Series]) -> str:
    """One line per series: saturation throughput and zero-load latency."""
    lines = ["saturation summary:"]
    for s in series:
        if not s.points:
            continue
        lines.append(
            f"  {s.label:<24} zero-load lat {_fmt(s.points[0].latency)}"
            f"  saturation tput {_fmt(s.saturation_throughput(), 4)}"
        )
    return "\n".join(lines)


def render_experiment(exp: Experiment) -> str:
    """Full report for one figure."""
    parts = [
        exp.heading,
        render_series_table(exp.series),
        render_saturation_summary(exp.series),
    ]
    return "\n".join(parts)
