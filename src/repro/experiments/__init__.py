"""Experiment drivers reproducing the paper's evaluation figures.

One module per figure (see DESIGN.md's experiment index):

* :mod:`repro.experiments.formula_table` — Section 2.2 / Figure 1
* :mod:`repro.experiments.theorem_table` — Section 3.0 theorems
* :mod:`repro.experiments.fig12_fault_free` — Figure 12
* :mod:`repro.experiments.fig13_static_faults` — Figure 13
* :mod:`repro.experiments.fig14_fault_sweep` — Figure 14
* :mod:`repro.experiments.fig15_aggressive_vs_conservative` — Figure 15
* :mod:`repro.experiments.fig17_dynamic_faults` — Figure 17
* :mod:`repro.experiments.ablation_k` — design-space ablations
* :mod:`repro.experiments.ablation_hw_acks` — Section 7.0 hardware acks
* :mod:`repro.experiments.message_length_sweep` — Section 1.0 claim
* :mod:`repro.experiments.saturation` — auto-knee saturation sweeps
  over the workload catalog (DESIGN.md §9)

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
