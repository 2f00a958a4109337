"""Ablation: scouting distance K and misroute budget m (Section 6.2).

The paper's closing discussion ("a relatively more conservative version
could have been configured...") motivates two sweeps beyond Figure 15:

* **K sweep** — TP with k_unsafe in {0, 1, 3, 5} at a fixed fault count
  and load: larger K trades acknowledgment traffic for cheaper
  backtracking (fewer detours).
* **m sweep** — the detour misroute budget in {1, 2, 4, 6}: Theorem 2
  says 6 guarantees delivery under the 2n-1 fault budget; smaller
  budgets force earlier backtracking and more retries.
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

K_VALUES = (0, 1, 3, 5)
M_VALUES = (1, 2, 4, 6)


def run(scale: Optional[Scale] = None,
        paper_faults: int = 10,
        load: float = 0.15,
        k_values: Sequence[int] = K_VALUES,
        m_values: Sequence[int] = M_VALUES) -> Experiment:
    scale = scale if scale is not None else experiment_scale()
    faults = scale.faults(paper_faults)
    return Experiment(
        figure="Ablation",
        title=(
            f"TP design-space sweep (K, m) at {paper_faults} paper-scale "
            f"faults, load {load}"
        ),
        scale_name=scale.name,
        series=[
            Series("K sweep", [
                Point.of(load, run_point(
                    scale, "tp", {"k_unsafe": k}, load,
                    static_faults=faults, base_seed=17 + k,
                ), K=k)
                for k in k_values
            ]),
            Series("m sweep", [
                Point.of(load, run_point(
                    scale, "tp", {"k_unsafe": 0, "misroute_limit": m}, load,
                    static_faults=faults, base_seed=57 + m,
                ), m=m)
                for m in m_values
            ]),
        ],
    )


def render(exp: Experiment) -> str:
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


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
