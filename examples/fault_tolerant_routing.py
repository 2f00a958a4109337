#!/usr/bin/env python
"""Watch a Two-Phase header detour around a wall of failed nodes.

Reproduces the flavor of the paper's Figure 7 routing example: faults
block every minimal path, the header switches from the optimistic DP
phase to conservative detour construction (misrouting + backtracking),
and the message still arrives.  The script prints the header's
behaviour counters and compares aggressive (K = 0) against
conservative (K = 3) flow control, and TP against the MB-m baseline.

Run:  python examples/fault_tolerant_routing.py
"""

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.sim.simulator import idle_engine, probe


def build_walled_network() -> tuple:
    """An 8-ary 2-cube with a 3-node wall across the minimal path.

    Source (0,0), destination (3,0): every minimal path runs straight
    along y = 0 (the y offset is zero, so adaptive minimal routing
    cannot sidestep), and the wall of failed nodes at x = 2 blocks it;
    the header must detour through non-minimal rows.
    """
    topo = KAryNCube(8, 2)
    faults = FaultState(topo)
    for y in (7, 0, 1):  # wall at x = 2, straddling the path row y = 0
        faults.fail_node(topo.node_id((2, y)))
    src = topo.node_id((0, 0))
    dst = topo.node_id((3, 0))
    return topo, faults, src, dst


def route_once(protocol_name: str, **params) -> dict:
    _, faults, src, dst = build_walled_network()
    engine = idle_engine(protocol_name, params, fault_state=faults,
                         message_length=32)
    (msg,) = probe(engine, [(src, dst)], 32, 4000)
    assert msg.status.name == "DELIVERED", msg
    return {
        "latency": msg.delivered_cycle - msg.created_cycle,
        "hops": msg.hops_taken,
        "misroutes": msg.misroute_total,
        "backtracks": msg.backtrack_count,
        "detours": msg.detour_count,
        "control flits": engine.control_flits_sent,
    }


def main() -> None:
    topo, faults, src, dst = build_walled_network()
    print("Faulty 8-ary 2-cube: nodes (2,7), (2,0), (2,1) failed")
    print(f"Route {topo.coords(src)} -> {topo.coords(dst)}: minimal "
          f"distance {topo.distance(src, dst)}, healthy shortest path "
          f"{faults.shortest_healthy_distance(src, dst)} hops")
    print()
    configs = [
        ("TP aggressive (K=0)", "tp", {"k_unsafe": 0}),
        ("TP conservative (K=3)", "tp", {"k_unsafe": 3}),
        ("MB-m (PCS)", "mb", {}),
    ]
    header = f"{'protocol':<24}" + "".join(
        f"{h:>14}" for h in (
            "latency", "hops", "misroutes", "backtracks", "detours",
            "ctl flits",
        )
    )
    print(header)
    for label, name, params in configs:
        stats = route_once(name, **params)
        print(
            f"{label:<24}{stats['latency']:>14}{stats['hops']:>14}"
            f"{stats['misroutes']:>14}{stats['backtracks']:>14}"
            f"{stats['detours']:>14}{stats['control flits']:>14}"
        )
    print()
    print("The TP header crosses unsafe channels, enters detour mode at")
    print("the wall, misroutes around it, and resumes DP routing — the")
    print("Figure 7 scenario.  MB-m sets the whole path up first and")
    print("pays the PCS round-trip before any data moves.")


if __name__ == "__main__":
    main()
