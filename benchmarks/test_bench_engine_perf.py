"""P1 — engine performance: simulated cycles per second over a matrix.

Times simulation runs across a small protocol / load / fault grid and
records wall-clock time plus simulated cycles per second in
``BENCH_engine.json`` at the repository root, which CI uploads as an
artifact.  The *gated* workloads — the saturated ``tp-high`` and
``dp-high`` (data path), the control-heavy ``tp-k3-recovery``
(routing decisions and control flits) and the ultra-low-load
``tp-idle-long`` (header set-up and worm jumps of the steady-state
fast-forward) — are timed three times and report the median wall
clock — they gate CI, so their figure should not hinge on one
scheduler hiccup; the rest run once and stay informational.  Every
row also records ``events`` (data
flit hops + ejections + header routing decisions — the simulation's
unit of real work) and ``events_per_sec``, which tracks interpreter
cost per event independently of how many empty cycles the steady-state
fast-forward skipped (flit hops it applies to streaming worms and
header hops it applies to a lone set-up in closed form are events too,
so the idle rows' figure rises with them), and
``construct_kb``: the bytes ``tracemalloc`` sees a second simulator of
the row's config allocate before its first cycle — what a simulator
costs once the geometry shared per ``(k, n)`` exists, and exactly
repeatable on one Python version.  CI's perf-smoke job hard-fails when
a gated workload loses more than 25% cycles/s against the committed
snapshot, or any row's ``construct_kb`` rises more than 25% — see
``benchmarks/compare_bench.py --workloads`` / ``--key``.
"""

import dataclasses
import json
import pathlib
import statistics
import time
import tracemalloc

from repro.experiments.common import base_config, experiment_scale
from repro.sim.config import FaultConfig, RecoveryConfig
from repro.sim.simulator import NetworkSimulator

from .conftest import run_and_report

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

#: (name, protocol, params, offered load, dynamic faults, overrides) —
#: low and near-saturation load for the paper's default protocol, a
#: dynamic-fault storm, the two comparison protocols, and two
#: ultra-low-load long-horizon workloads where the steady-state
#: fast-forward dominates (most cycles have nothing in flight, most of
#: the rest only uncontended worms).
WORKLOADS = (
    ("tp-low", "tp", {"k_unsafe": 0}, 0.10, 0, {}),
    ("tp-high", "tp", {"k_unsafe": 0}, 0.28, 0, {}),
    ("tp-dynamic-faults", "tp", {"k_unsafe": 0}, 0.10, 2, {}),
    ("dp-low", "dp", {}, 0.10, 0, {}),
    ("dp-high", "dp", {}, 0.28, 0, {}),
    ("mb-low", "mb", {}, 0.10, 0, {}),
    ("tp-idle-long", "tp", {"k_unsafe": 0}, 0.002, 0,
     {"warmup_cycles": 2000, "measure_cycles": 60_000,
      "drain_cycles": 4000}),
    ("tp-idle-faults", "tp", {"k_unsafe": 0}, 0.002, 2,
     {"warmup_cycles": 2000, "measure_cycles": 60_000,
      "drain_cycles": 4000}),
    # Workload-catalog patterns: hotspot concentrates contention on a
    # few routers; bursty alternates saturated ON windows with long
    # quiescent OFF stretches the fast-forward should eat.
    ("tp-hotspot", "tp", {"k_unsafe": 0}, 0.10, 0,
     {"traffic": "hotspot",
      "traffic_params": {"hotspot_fraction": 0.3, "hotspot_count": 4}}),
    ("tp-bursty", "tp", {"k_unsafe": 0}, 0.06, 0,
     {"traffic": "bursty",
      "traffic_params": {"burst_on": 64, "burst_off": 192}}),
    # The control-heavy row: conservative TP (K=3) near the fault
    # vicinity — static node faults (the paper's 10 at the reduced
    # scale's node ratio), dynamic link faults, tail acknowledgments
    # and retransmission — so detour search, backtracking, scouting
    # acks, kills and tail acks carry the time, as in the Figs 13/14/17
    # experiments.  A header-hop regression shows here first.
    ("tp-k3-recovery", "tp", {"k_unsafe": 3}, 0.15, 2,
     {"faults": FaultConfig(static_node_faults=2),
      "recovery": RecoveryConfig(tail_ack=True, retransmit=True,
                                 max_retransmits=3)}),
)


#: Workloads whose cycles/s figure gates CI: timed ``_GATED_ROUNDS``
#: times, reporting the median wall clock.  The two saturated rows
#: gate the data path, ``tp-k3-recovery`` the header / control path,
#: ``tp-idle-long`` the idle path (header set-up and worm jumps).
GATED = frozenset({"tp-high", "dp-high", "tp-k3-recovery", "tp-idle-long"})
_GATED_ROUNDS = 3


def _run_once(cfg):
    """One timed run; returns (wall seconds, RunResult, engine)."""
    sim = NetworkSimulator(cfg)
    start = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - start
    return wall, result, sim.engine


def _construct_kb(cfg):
    """KB allocated by building one more simulator of ``cfg``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sim = NetworkSimulator(cfg)  # kept alive until measured
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round((after - before) / 1024, 1)


def run_matrix():
    scale = experiment_scale()
    rows = []
    for name, protocol, params, load, dynamic, overrides in WORKLOADS:
        cfg = base_config(scale, protocol, params,
                          offered_load=load, seed=42, **overrides)
        if dynamic:
            cfg = cfg.with_(faults=dataclasses.replace(
                cfg.faults,
                dynamic_faults=dynamic, dynamic_start=cfg.warmup_cycles,
            ))
        rounds = _GATED_ROUNDS if name in GATED else 1
        # Repeats rebuild the simulator from the same config/seed, so
        # cycles and event counts are identical across rounds — only
        # the wall clock varies, and the median damps runner noise.
        walls = []
        for _ in range(rounds):
            wall, result, engine = _run_once(cfg)
            walls.append(wall)
        wall = statistics.median(walls)
        events = (engine.data_flits_moved + engine.flits_ejected
                  + engine.header_decisions + engine.setup_hops)
        rows.append({
            "workload": name,
            "protocol": protocol,
            "offered_load": load,
            "dynamic_faults": dynamic,
            "cycles": result.cycles,
            "wall_s": round(wall, 4),
            "cycles_per_sec": round(result.cycles / wall, 1),
            "events": events,
            "events_per_sec": round(events / wall, 1),
            "rounds": rounds,
            "construct_kb": _construct_kb(cfg),
            "delivered": result.delivered,
            "drained": result.drained,
        })
    return {
        "scale": scale.name,
        "k": scale.k,
        "n": scale.n,
        "workloads": rows,
    }


def render(report):
    title = (
        f"engine perf ({report['scale']} scale, "
        f"{report['k']}-ary {report['n']}-cube)"
    )
    header = (
        f"{'workload':<20} {'cycles':>8} {'wall_s':>8} {'cyc/s':>10} "
        f"{'events':>9} {'ev/s':>10}"
    )
    lines = [title, header, "-" * len(header)]
    for row in report["workloads"]:
        lines.append(
            f"{row['workload']:<20} {row['cycles']:>8} "
            f"{row['wall_s']:>8.3f} {row['cycles_per_sec']:>10,.0f} "
            f"{row['events']:>9} {row['events_per_sec']:>10,.0f}"
        )
    return "\n".join(lines)


def test_bench_engine_perf(benchmark):
    report = run_and_report(benchmark, run_matrix, render,
                            name="engine_perf")
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["workloads"]:
        assert row["cycles"] > 0
        assert row["cycles_per_sec"] > 0
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        assert row["construct_kb"] > 0
        assert row["delivered"] > 0
        assert row["rounds"] == (
            _GATED_ROUNDS if row["workload"] in GATED else 1
        )
