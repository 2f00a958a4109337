"""Extension: message-length sensitivity of the flow-control choice.

Section 1.0 motivates configurable flow control with the observation
that PCS path setup "can exact significant performance penalties ...
especially for short messages": the setup cost (2l - 1 over wormhole)
is length-independent, so its *relative* cost shrinks as messages grow.
This sweep measures TP and MB-m latency across message lengths at a
fixed moderate load and reports the MB-m/TP latency ratio, which must
fall monotonically (within noise) with length.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    Experiment,
    Point,
    Scale,
    Series,
    experiment_scale,
    run_point,
)

LENGTHS = (4, 8, 16, 32, 64)


def run(scale: Optional[Scale] = None,
        lengths: Sequence[int] = LENGTHS,
        load: float = 0.10) -> Experiment:
    scale = scale if scale is not None else experiment_scale()
    return Experiment(
        figure="Length sweep",
        title=f"Latency vs message length at load {load} (fault-free)",
        scale_name=scale.name,
        series=[
            Series(label, [
                Point.of(load, run_point(
                    scale, protocol, {}, load, message_length=length,
                    base_seed=31 + 11 * i,
                ), length=length)
                for i, length in enumerate(lengths)
            ])
            for label, protocol in (("TP", "tp"), ("MB-m", "mb"))
        ],
    )


def render(exp: Experiment) -> str:
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


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
