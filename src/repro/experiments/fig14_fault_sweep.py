"""Figure 14: latency and throughput as a function of node faults.

TP (aggressive) and MB-m swept over the number of failed nodes at four
fixed offered loads; the paper parameterizes load as messages per node
per 5000 cycles (1, 10, 30, 50 — i.e. 0.0064 to 0.32 flits/node/cycle
with 32-flit messages).

Expected shape (paper): MB-m's latency stays nearly flat as faults
grow at low loads, with small steady throughput drops; TP is clearly
better at low fault counts but its throughput falls steeply as the
fault count climbs toward 20 (detour construction and searching
dominate), which is the paper's central trade-off.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    Experiment,
    Point,
    Scale,
    Series,
    experiment_scale,
    fig14_load,
    run_point,
)

#: The paper's offered loads in messages/node/5000 cycles.
PAPER_LOADS_MSG_PER_5000 = (1, 10, 30, 50)

#: The paper sweeps 0..20 failed nodes.
PAPER_FAULT_SWEEP = (0, 2, 5, 10, 15, 20)


def run(scale: Optional[Scale] = None,
        loads_msg: Sequence[int] = PAPER_LOADS_MSG_PER_5000,
        fault_sweep: Sequence[int] = PAPER_FAULT_SWEEP) -> Experiment:
    scale = scale if scale is not None else experiment_scale()
    exp = Experiment(
        figure="Figure 14",
        title="Latency and Throughput vs. Node Faults, TP and MB-m",
        scale_name=scale.name,
    )
    for label, protocol, params in (
        ("TP", "tp", {"k_unsafe": 0}),
        ("MB-m", "mb", {}),
    ):
        for msgs in loads_msg:
            load = fig14_load(msgs)
            exp.series.append(Series(f"{label} ({msgs})", [
                Point.of(load, run_point(
                    scale, protocol, params, load,
                    static_faults=scale.faults(paper_faults),
                    base_seed=7000 + 31 * paper_faults,
                ), node_faults=paper_faults)
                for paper_faults in fault_sweep
            ]))
    return exp


def render(exp: Experiment) -> str:
    """Figure 14's layout: rows are fault counts, columns are loads."""
    lines = [exp.heading]
    if not exp.series:
        return lines[0]
    fault_axis = [
        int(pt.extra["node_faults"]) for pt in exp.series[0].points
    ]
    for metric, digits in (("latency", 1), ("throughput", 4)):
        lines.append(f"-- {metric} vs node faults --")
        header = ["faults"] + [s.label for s in exp.series]
        widths = [max(11, len(h) + 2) for h in header]
        lines.append("".join(h.rjust(w) for h, w in zip(header, widths)))
        for i, f in enumerate(fault_axis):
            row = [str(f)]
            for s in exp.series:
                value = getattr(s.points[i], metric)
                row.append(f"{value:.{digits}f}")
            lines.append("".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
