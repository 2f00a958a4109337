"""Section 2.2 / Figure 1: minimum-latency table for WR, SR(K), PCS.

Regenerates the time-space comparison of Figure 1 as a table of
minimum latencies — analytic formula next to the value measured by a
single-message, idle-network simulation — over a grid of path lengths,
message lengths, and scouting distances.  Every (analytic, measured)
pair must agree exactly; this is the simulator's validation table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.latency_model import t_pcs, t_scouting, t_wormhole
from repro.sim.simulator import idle_engine, probe


@dataclass(frozen=True)
class FormulaRow:
    mechanism: str
    links: int
    length: int
    k: int
    analytic: int
    measured: int

    @property
    def match(self) -> bool:
        return self.analytic == self.measured


def measure_single_message(flow: str, links: int, length: int,
                           k: int = 3, radix: int = 16) -> int:
    """Idle-network latency of one message over ``links`` hops."""
    engine = idle_engine("det", {"flow": flow, "k": k}, k=radix,
                         message_length=length)
    (msg,) = probe(engine, [(0, links)], length,
                   6 * links + 4 * length + 8 * max(k, 1) + 60)
    if msg.status.name != "DELIVERED":
        raise RuntimeError(f"single message not delivered: {msg!r}")
    return msg.delivered_cycle - msg.created_cycle


def analytic(flow: str, links: int, length: int, k: int = 3) -> int:
    if flow == "wr":
        return t_wormhole(links, length)
    if flow == "pcs":
        return t_pcs(links, length)
    if flow == "sr":
        # On a short path SR degenerates to PCS (Section 2.2).
        if k <= links:
            return t_scouting(links, length, k)
        return t_pcs(links, length)
    raise ValueError(flow)


def run(link_grid: Sequence[int] = (1, 2, 4, 7),
        length_grid: Sequence[int] = (1, 8, 32),
        k_grid: Sequence[int] = (1, 3)) -> List[FormulaRow]:
    rows: List[FormulaRow] = []
    for links in link_grid:
        for length in length_grid:
            for flow, k in (
                [("wr", 0), ("pcs", 0)] + [("sr", k) for k in k_grid]
            ):
                rows.append(
                    FormulaRow(
                        mechanism=flow.upper(),
                        links=links,
                        length=length,
                        k=k,
                        analytic=analytic(flow, links, length, k),
                        measured=measure_single_message(
                            flow, links, length, k
                        ),
                    )
                )
    return rows


def render(rows: List[FormulaRow]) -> str:
    lines = [
        "=== Section 2.2 / Figure 1: minimum latency, analytic vs measured ===",
        f"{'mech':>6}{'l':>4}{'L':>4}{'K':>4}{'analytic':>10}"
        f"{'measured':>10}{'match':>7}",
    ]
    for r in rows:
        lines.append(
            f"{r.mechanism:>6}{r.links:>4}{r.length:>4}{r.k:>4}"
            f"{r.analytic:>10}{r.measured:>10}{'ok' if r.match else 'FAIL':>7}"
        )
    mismatches = sum(1 for r in rows if not r.match)
    lines.append(f"{len(rows)} rows, {mismatches} mismatches")
    return "\n".join(lines)

