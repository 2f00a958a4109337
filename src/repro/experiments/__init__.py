"""Experiment drivers reproducing the paper's evaluation (DESIGN.md §4).

* :mod:`repro.experiments.figures` — every evaluation figure as one
  table, :data:`~repro.experiments.figures.FIGURES` (Figures 12–15
  and 17, the K / m ablation, hardware acks, message length);
* :mod:`repro.experiments.formula_table` — Section 2.2 / Figure 1;
* :mod:`repro.experiments.theorem_table` — Section 3.0 theorems;
* :mod:`repro.experiments.saturation` — auto-knee saturation sweeps
  over the workload catalog (DESIGN.md §9).

Every point of every figure is one
:func:`~repro.experiments.common.run_point`; the two tables measure
single messages on an idle network with
:func:`repro.sim.simulator.probe`.
"""

from repro.experiments.common import (
    DEFAULT_LOADS,
    MESSAGE_LENGTH,
    PAPER,
    QUICK,
    REDUCED,
    Experiment,
    Point,
    Scale,
    Series,
    base_config,
    experiment_scale,
    fig14_load,
    run_point,
    sweep_loads,
)
from repro.experiments.saturation import (
    KneeProbe,
    KneeResult,
    find_knee,
)

__all__ = [
    "KneeProbe",
    "KneeResult",
    "find_knee",
    "DEFAULT_LOADS",
    "Experiment",
    "MESSAGE_LENGTH",
    "PAPER",
    "Point",
    "QUICK",
    "REDUCED",
    "Scale",
    "Series",
    "base_config",
    "experiment_scale",
    "fig14_load",
    "run_point",
    "sweep_loads",
]
