#!/usr/bin/env python
"""Compare the three flow-control mechanisms of Figure 1.

Sends a single message over an idle path under wormhole routing,
scouting with several distances K, and pipelined circuit switching,
printing the measured latency next to the paper's Section 2.2 formula
— and showing how scouting interpolates between WR (K = 0) and PCS
(K >= path length).

Run:  python examples/flow_control_comparison.py
"""

from repro.experiments.formula_table import analytic, measure_single_message

LINKS = 6       # path length in hops
LENGTH = 32     # data flits per message


def main() -> None:
    print(f"One {LENGTH}-flit message over {LINKS} links (idle network)")
    print(f"{'mechanism':<18}{'analytic':>10}{'simulated':>11}")
    rows = [("wormhole (WR)", "wr", 0)]
    rows += [(f"scouting K={k}", "sr", k) for k in (1, 2, 3, 6, 9)]
    rows += [("PCS", "pcs", 0)]
    for label, flow, k in rows:
        measured = measure_single_message(flow, LINKS, LENGTH, k)
        expected = analytic(flow, LINKS, LENGTH, k)
        print(f"{label:<18}{expected:>10}{measured:>11}")
    print()
    print("Scouting with K = 0 is wormhole; K >= path length behaves")
    print("like PCS — one router implements the whole spectrum, which")
    print("is the configurable flow control the paper proposes.")


if __name__ == "__main__":
    main()
