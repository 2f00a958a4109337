"""Figure 17: dynamic fault tolerance with and without tail acks.

Two-Phase routing under dynamically injected link failures (Figure 16's
kill-flit recovery scenario), comparing the recovery-only design
("w/o TAck": interrupted messages are torn down by kill flits and the
rare loss is accepted) against reliable delivery ("with TAck": every
path is held until the tail reaches the destination, a tail
acknowledgment tears it down, and interrupted messages are
retransmitted from the source).  Following the paper, the dynamic runs
inject f faults probabilistically during the run and are compared
against f/2 static faults — the average number present over the run.

Expected shape (paper): at low loads the reliable-delivery overhead is
insignificant; as injection rates grow the held paths and tail-ack
control traffic throttle injection, so the with-TAck curves saturate
at lower loads with higher latencies.  The feasible operating range of
dynamic fault recovery nevertheless extends almost to saturation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    DEFAULT_LOADS,
    Experiment,
    Scale,
    experiment_scale,
    sweep_loads,
)
from repro.sim.config import RecoveryConfig

PAPER_FAULT_COUNTS = (1, 10, 20)

VARIANTS = (
    ("w/o TAck", RecoveryConfig(tail_ack=False, retransmit=False)),
    (
        "with TAck",
        RecoveryConfig(tail_ack=True, retransmit=True, max_retransmits=3),
    ),
)


def run(scale: Optional[Scale] = None,
        loads: Sequence[float] = DEFAULT_LOADS,
        fault_counts: Sequence[int] = PAPER_FAULT_COUNTS,
        static_reference: bool = False) -> Experiment:
    """The Figure 17 sweep.

    With ``static_reference`` the dynamic injections are replaced by
    the paper's f/2 static-fault comparison points.
    """
    scale = scale if scale is not None else experiment_scale()
    exp = Experiment(
        figure="Figure 17",
        title="TP under dynamic faults, with vs. without tail acks",
        scale_name=scale.name,
    )
    for label, recovery in VARIANTS:
        for paper_faults in fault_counts:
            faults = scale.faults(paper_faults)
            kwargs = dict(
                loads=loads,
                recovery=recovery,
                base_seed=1000 * paper_faults + 9,
            )
            if static_reference:
                kwargs["static_faults"] = max(1, faults // 2)
            else:
                kwargs["dynamic_faults"] = faults
            exp.series.append(
                sweep_loads(
                    scale, f"{label} ({paper_faults}F)", "tp",
                    {"k_unsafe": 0}, **kwargs,
                )
            )
    return exp


def main() -> None:  # pragma: no cover - CLI entry
    from repro.experiments.report import render_experiment

    print(render_experiment(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
