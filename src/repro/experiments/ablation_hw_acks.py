"""Extension: hardware acknowledgment signals (Section 7.0 future work).

The paper closes by proposing to implement the positive/negative
acknowledgment flits "in hardware" — a few dedicated control signals on
the physical channel — so that conservative (K > 0) scouting stops
paying link bandwidth for its acknowledgment traffic: "By implementing
acknowledgment flits in hardware, we hope to extend the superior low
load performance of TP to significantly higher loads."

This experiment tests that hypothesis: conservative TP (K = 3) with
multiplexed (flit) acknowledgments against the same protocol with
dedicated ack wires, under static faults across the load sweep.
Expected: identical at low load; the hardware-ack variant holds its
latency advantage deeper into the load range, closing (part of) the gap
to the aggressive K = 0 configuration of Figure 15.
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


def run(scale: Optional[Scale] = None,
        loads: Sequence[float] = DEFAULT_LOADS,
        paper_faults: int = 10,
        k_unsafe: int = 3) -> Experiment:
    scale = scale if scale is not None else experiment_scale()
    faults = scale.faults(paper_faults)
    return Experiment(
        figure="HW-ack ablation",
        title=(
            f"Conservative TP (K={k_unsafe}), flit acks vs dedicated "
            f"ack signals, {paper_faults} paper-scale faults"
        ),
        scale_name=scale.name,
        series=[
            sweep_loads(
                scale, label, "tp", {"k_unsafe": k_unsafe}, loads=loads,
                base_seed=500, seed_stride=97, static_faults=faults,
                hardware_acks=hardware,
            )
            for label, hardware in (("Flit acks", False), ("HW acks", True))
        ],
    )


def main() -> None:  # pragma: no cover - CLI entry
    from repro.experiments.report import render_experiment

    print(render_experiment(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
