"""Section 3.0: Theorem 1/2 backtracking bounds, analytic vs simulated.

Builds the adversarial fault configurations of Figures 4 and 5 — a
fault "alley" whose only exit is backward — and measures the maximum
number of consecutive backtracking steps an MB-style search performs,
comparing against Theorem 1's ``b = (f - 1) div (2n - 2)`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.theorems import (
    max_backtrack_straight_alley,
    min_faults_for_backtracks,
)
from repro.faults.model import FaultState
from repro.network.topology import KAryNCube, cube
from repro.sim.simulator import idle_engine, probe


def build_alley(topology: KAryNCube, depth: int) -> Tuple[FaultState, int, int]:
    """A dead-end alley of ``depth`` nodes along dimension 0.

    The source sits at the alley mouth; every side exit and the far end
    are failed, so a header walking in is forced to backtrack ``depth``
    consecutive hops.  Returns (faults, source, alley_end).
    """
    faults = FaultState(topology)
    # Alley nodes: (1,0), (2,0), ..., (depth,0); walls at coordinate
    # +-1 in every other dimension plus the node past the end.
    for i in range(1, depth + 1):
        node = topology.node_id([i] + [0] * (topology.n - 1))
        for dim in range(1, topology.n):
            for direction in (+1, -1):
                faults.fail_node(topology.neighbor(node, dim, direction))
    end = topology.node_id([depth] + [0] * (topology.n - 1))
    faults.fail_node(topology.neighbor(end, 0, +1))
    src = topology.node_id([0] * topology.n)
    return faults, src, end


@dataclass(frozen=True)
class TheoremRow:
    depth: int
    faults: int
    bound: int
    measured_backtracks: int

    @property
    def within_bound(self) -> bool:
        return self.measured_backtracks <= max(self.bound, self.depth)


def measure_alley_backtracks(radix: int, n: int, depth: int) -> TheoremRow:
    """Send one MB-m message into the alley and count its retreat."""
    topology = cube(radix, n)
    faults, src, end = build_alley(topology, depth)
    engine = idle_engine(
        "mb", {"misroute_limit": 0, "max_retries": 0}, fault_state=faults,
        k=radix, n=n, message_length=4,
    )
    # Destination deep in the alley's dead end direction: the only
    # minimal port at the mouth leads into the alley.
    dst = topology.neighbor(topology.neighbor(end, 0, +1), 0, +1)
    (msg,) = probe(engine, [(src, dst)], 4, 40 * depth + 400)
    return TheoremRow(
        depth=depth,
        faults=faults.num_faults,
        bound=max_backtrack_straight_alley(faults.num_faults, n),
        measured_backtracks=msg.backtrack_count,
    )


def run(radix: int = 16, n: int = 2,
        depths: Tuple[int, ...] = (1, 2, 3, 4)) -> List[TheoremRow]:
    return [measure_alley_backtracks(radix, n, d) for d in depths]


def render(rows: List[TheoremRow], n: int = 2) -> str:
    lines = [
        "=== Section 3.0: consecutive backtracks vs Theorem 1 bound ===",
        f"{'depth':>6}{'faults':>8}{'thm bound':>11}{'measured':>10}"
        f"{'ok':>5}",
        f"(inverse check: b backtracks need >= "
        f"{min_faults_for_backtracks(1, n)} faults for b=1 in n={n})",
    ]
    for r in rows:
        lines.append(
            f"{r.depth:>6}{r.faults:>8}{r.bound:>11}"
            f"{r.measured_backtracks:>10}{'ok' if r.within_bound else 'NO':>5}"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
