"""The paper's evaluation figures as one table (DESIGN.md §4).

:data:`FIGURES` maps each ``repro-sim figure`` name to a
:class:`Figure`: its heading, the curves it plots and how its report
is rendered.  ``FIGURES[name].run(scale, **axes)`` measures it; the
axes (``loads``, ``fault_counts``, ``loads_msg``, ``fault_sweep``,
``k_values``, ``m_values``, ``lengths``) narrow a sweep and default to
the paper's.  Every point is one
:func:`~repro.experiments.common.run_point`, and every fault count is
the paper's, scaled to the network by :meth:`Scale.faults`.  Each
figure's expected shape is its DESIGN.md §4 row and EXPERIMENTS.md
section (E3–E7, E9–E11); ``benchmarks/test_bench_figures.py`` checks
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.experiments.common import (
    DEFAULT_LOADS,
    Experiment,
    Point,
    Scale,
    Series,
    experiment_scale,
    fig14_load,
    run_point,
    sweep_loads,
)
from repro.experiments.report import render_experiment
from repro.sim.config import RecoveryConfig


@dataclass(frozen=True)
class Figure:
    """One figure: its heading, its curves and its report layout."""

    figure: str
    title: str
    #: ``series(scale, **axes)``: the figure's curves, in plot order.
    series: Callable[..., List[Series]]
    render: Callable[[Experiment], str] = render_experiment

    def run(self, scale: Optional[Scale] = None, **axes) -> Experiment:
        scale = scale if scale is not None else experiment_scale()
        return Experiment(self.figure, self.title, scale.name,
                          self.series(scale, **axes))


#: Two-Phase routing's aggressive configuration (K = 0 past unsafe
#: channels: no acknowledgment flits, faults handled by detours).
TP = ("tp", {"k_unsafe": 0})
MB = ("mb", {})
#: Conservative TP's scouting distance: Theorem 2's sufficient K.
CONSERVATIVE_K = 3

#: The paper's fault counts of Figures 13, 15 and 17.
PAPER_FAULT_COUNTS = (1, 10, 20)
#: Figure 14's loads (messages/node/5000 cycles) and fault axis.
PAPER_LOADS_MSG = (1, 10, 30, 50)
PAPER_FAULT_SWEEP = (0, 2, 5, 10, 15, 20)
#: The paper fault count of the K / m ablation and the hardware-ack
#: extension, and the fixed loads of the ablation and length sweep.
SWEEP_FAULTS = 10
ABLATION_LOAD = 0.15
LENGTH_LOAD = 0.10
K_VALUES = (0, 1, 3, 5)
M_VALUES = (1, 2, 4, 6)
LENGTHS = (4, 8, 16, 32, 64)


def _fault_curves(curves, seed: int, fault_kind: str = "static_faults"):
    """Figures 13, 15 and 17: one load sweep per (curve, paper fault
    count ``f``), labelled ``"<curve> (fF)"``, seeded ``1000·f +
    seed`` and run with ``scale.faults(f)`` faults of ``fault_kind``.
    Each curve is ``(label, protocol, params, run_point keywords)``."""
    def series(scale: Scale, loads=DEFAULT_LOADS,
               fault_counts=PAPER_FAULT_COUNTS) -> List[Series]:
        return [
            sweep_loads(
                scale, f"{label} ({f}F)", protocol, params, loads=loads,
                base_seed=1000 * f + seed,
                **{fault_kind: scale.faults(f)}, **point_kwargs,
            )
            for label, protocol, params, point_kwargs in curves
            for f in fault_counts
        ]
    return series


def _fig12(scale: Scale, loads=DEFAULT_LOADS) -> List[Series]:
    return [
        sweep_loads(scale, label, protocol, params, loads=loads)
        for label, (protocol, params) in (
            ("TP", TP), ("DP", ("dp", {})), ("MB-m", MB),
        )
    ]


def _fig14(scale: Scale, loads_msg=PAPER_LOADS_MSG,
           fault_sweep=PAPER_FAULT_SWEEP) -> List[Series]:
    """One curve per (protocol, load) over the node-fault axis."""
    return [
        Series(f"{label} ({msgs})", [
            Point.of(fig14_load(msgs), run_point(
                scale, protocol, params, fig14_load(msgs),
                static_faults=scale.faults(f), base_seed=7000 + 31 * f,
            ), node_faults=f)
            for f in fault_sweep
        ])
        for label, (protocol, params) in (("TP", TP), ("MB-m", MB))
        for msgs in loads_msg
    ]


def _render_fig14(exp: Experiment) -> str:
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


def _ablation(scale: Scale, k_values=K_VALUES,
              m_values=M_VALUES) -> List[Series]:
    """TP at one fault count and load, swept over the scouting
    distance K and, at K = 0, over the misroute budget m."""
    faults = scale.faults(SWEEP_FAULTS)
    return [
        Series("K sweep", [
            Point.of(ABLATION_LOAD, run_point(
                scale, "tp", {"k_unsafe": k}, ABLATION_LOAD,
                static_faults=faults, base_seed=17 + k,
            ), K=k)
            for k in k_values
        ]),
        Series("m sweep", [
            Point.of(ABLATION_LOAD, run_point(
                scale, "tp", {"k_unsafe": 0, "misroute_limit": m},
                ABLATION_LOAD,
                static_faults=faults, base_seed=57 + m,
            ), m=m)
            for m in m_values
        ]),
    ]


def _render_ablation(exp: Experiment) -> str:
    lines = [exp.heading]
    for series in exp.series:
        lines.append(f"-- {series.label} --")
        key = "K" if series.label.startswith("K") else "m"
        lines.append(
            f"{key:>4}{'latency':>12}{'tput':>10}{'dropped':>9}"
        )
        for pt in series.points:
            lines.append(
                f"{int(pt.extra[key]):>4}{pt.latency:>12.1f}"
                f"{pt.throughput:>10.4f}{pt.dropped:>9}"
            )
    return "\n".join(lines)


def _hw_acks(scale: Scale, loads=DEFAULT_LOADS) -> List[Series]:
    """Conservative TP with acknowledgments as flits vs on dedicated
    wires (Section 7.0)."""
    faults = scale.faults(SWEEP_FAULTS)
    return [
        sweep_loads(
            scale, label, "tp", {"k_unsafe": CONSERVATIVE_K}, loads=loads,
            base_seed=500, seed_stride=97, static_faults=faults,
            hardware_acks=hardware,
        )
        for label, hardware in (("Flit acks", False), ("HW acks", True))
    ]


def _length(scale: Scale, lengths=LENGTHS) -> List[Series]:
    return [
        Series(label, [
            Point.of(LENGTH_LOAD, run_point(
                scale, protocol, {}, LENGTH_LOAD, message_length=length,
                base_seed=31 + 11 * i,
            ), length=length)
            for i, length in enumerate(lengths)
        ])
        for label, protocol in (("TP", "tp"), ("MB-m", "mb"))
    ]


def _render_length(exp: Experiment) -> str:
    lines = [exp.heading]
    tp, mb = exp.series_by_label("TP"), exp.series_by_label("MB-m")
    lines.append(
        f"{'length':>8}{'TP lat':>10}{'MB-m lat':>10}{'ratio':>8}"
    )
    for tp_pt, mb_pt in zip(tp.points, mb.points):
        ratio = mb_pt.latency / tp_pt.latency
        lines.append(
            f"{int(tp_pt.extra['length']):>8}{tp_pt.latency:>10.1f}"
            f"{mb_pt.latency:>10.1f}{ratio:>8.2f}"
        )
    lines.append(
        "PCS setup cost is length-independent, so the MB-m/TP ratio "
        "falls as messages grow (Section 1.0)."
    )
    return "\n".join(lines)


#: Every ``repro-sim figure`` name that is a figure.
FIGURES = {
    "12": Figure(
        "Figure 12", "Latency vs. Throughput, TP / DP / MB-m, fault-free",
        _fig12,
    ),
    "13": Figure(
        "Figure 13", "Latency vs. Throughput, TP and MB-m with node faults",
        _fault_curves((("TP", *TP, {}), ("MB-m", *MB, {})), seed=1),
    ),
    "14": Figure(
        "Figure 14", "Latency and Throughput vs. Node Faults, TP and MB-m",
        _fig14, _render_fig14,
    ),
    "15": Figure(
        "Figure 15", "Aggressive (K=0) vs. Conservative (K=3) scouting, TP",
        _fault_curves((
            ("Aggressive", *TP, {}),
            ("Conservative", "tp", {"k_unsafe": CONSERVATIVE_K}, {}),
        ), seed=3),
    ),
    # Link faults injected during the run: recovery-only against
    # reliable delivery.  The paper's f/2 static reference is not plotted.
    "17": Figure(
        "Figure 17", "TP under dynamic faults, with vs. without tail acks",
        _fault_curves((
            ("w/o TAck", *TP, {"recovery": RecoveryConfig(
                tail_ack=False, retransmit=False)}),
            ("with TAck", *TP, {"recovery": RecoveryConfig(
                tail_ack=True, retransmit=True, max_retransmits=3)}),
        ), seed=9, fault_kind="dynamic_faults"),
    ),
    "ablation": Figure(
        "Ablation",
        f"TP design-space sweep (K, m) at {SWEEP_FAULTS} paper-scale "
        f"faults, load {ABLATION_LOAD}",
        _ablation, _render_ablation,
    ),
    "hw-acks": Figure(
        "HW-ack ablation",
        f"Conservative TP (K={CONSERVATIVE_K}), flit acks vs dedicated "
        f"ack signals, {SWEEP_FAULTS} paper-scale faults",
        _hw_acks,
    ),
    "length": Figure(
        "Length sweep",
        f"Latency vs message length at load {LENGTH_LOAD} (fault-free)",
        _length, _render_length,
    ),
}
