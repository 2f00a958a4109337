"""One repeat of one workload body, in a fresh interpreter.

Spawned by ``run.py`` (``python -m benchmarks.perf.child``), strictly
one at a time.  Set-up (imports, body generation, construction of every
simulator the body hands us as a config) is timed from the parent's
spawn instant; then each job is timed on its own and observed *after*
its clock stopped.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import hashlib
import json
import pathlib
import pickle
import resource
import statistics
import sys
import time
import traceback


def run_campaign(module, campaign, made: list):
    """Call a storm / chaos campaign function, recording in ``made``
    every ``NetworkSimulator`` it builds.

    ``repro.faults.chaos`` imports the class by name, so the name is
    patched where it is looked up.  No timing inside.
    """
    fn, fn_args = campaign
    original = module.NetworkSimulator

    def capture(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    module.NetworkSimulator = capture
    try:
        return fn(*fn_args)
    finally:
        module.NetworkSimulator = original


#: Engine counters summed over the body (per-layer counts, and the
#: work units of ``flit_hops_per_s`` / ``sim_cycles_per_s``).
ENGINE_COUNTERS = (
    "data_flits_moved", "flits_ejected", "control_flits_sent",
    "kernel_cycles", "header_decisions", "deadlock_recoveries",
    "reconfigurations", "reconfig_downtime_cycles",
)


def observe(sim, result) -> dict:
    """What one finished simulation contributes to the body's statistics.

    Latencies are those of delivered, non-superseded records created at
    or after the warm-up.  ``failed`` = not drained (storm / chaos
    records: ``ok`` false) or nothing delivered; dropped or killed
    *messages* are modelled behaviour and only lower ``delivery_ratio``.
    """
    engine = sim.engine
    warmup = sim.config.warmup_cycles
    ended = {"DELIVERED": 0, "DROPPED": 0, "KILLED": 0}
    latencies = []
    for rec in engine.records:
        if rec.superseded or rec.created < warmup or rec.status not in ended:
            continue
        ended[rec.status] += 1
        if rec.status == "DELIVERED" and rec.latency is not None:
            latencies.append(rec.latency)
    latencies.sort()
    finished = result.ok if hasattr(result, "ok") else result.drained
    counts = {name: getattr(engine, name) for name in ENGINE_COUNTERS}
    counts.update(
        cycles=engine.cycle,
        ff_cycles=engine.fast_forwarded_cycles,
        steps=engine.cycle - engine.fast_forwarded_cycles,
        epoch_bumps=engine.faults.epoch,
        chaos_faults_injected=getattr(result, "faults_injected", 0),
    )
    return {
        "failed": not finished or not latencies,
        "latency_mean": statistics.fmean(latencies) if latencies else None,
        "latency_p99": (
            latencies[int(0.99 * len(latencies))] if latencies else None
        ),
        "latency_samples": len(latencies),
        "ended": ended,
        "measured_flits": engine.measured_delivered_flits,
        "node_cycles": (
            engine.topology.num_nodes * engine.measure_window_cycles()
        ),
        "counts": counts,
    }


def simulated(seen: list) -> dict:
    """Simulated statistics of a body from its per-simulation parts.

    Latency: each simulation's mean and 99th percentile, then the
    geometric mean over the simulations — a body mixes loads, protocols
    and fault storms, and a pooled mean or tail is set by its one or two
    most congested runs (see README.md, "Bounds and recorded noise").
    Throughput and delivery ratio are pooled ratios.
    """
    delivering = [s for s in seen if s["latency_samples"]]
    ended = {
        status: sum(s["ended"][status] for s in seen)
        for status in ("DELIVERED", "DROPPED", "KILLED")
    }
    node_cycles = sum(s["node_cycles"] for s in seen)
    return {
        "sim_latency_mean": statistics.geometric_mean(
            s["latency_mean"] for s in delivering) if delivering else None,
        "sim_latency_p99": statistics.geometric_mean(
            s["latency_p99"] for s in delivering) if delivering else None,
        "latency_samples": sum(s["latency_samples"] for s in seen),
        "sim_throughput": (
            sum(s["measured_flits"] for s in seen) / node_cycles
            if node_cycles else None
        ),
        "delivery_ratio": (
            ended["DELIVERED"] / sum(ended.values())
            if sum(ended.values()) else None
        ),
    }


def parallel_probe(tracer, configs) -> dict:
    """``run_configs(body, jobs=2)`` plus the cost of shipping results."""
    from repro.sim.parallel import run_configs

    start = time.perf_counter()
    results = tracer.span("parallel.run_configs", run_configs)(configs, jobs=2)
    jobs2_s = time.perf_counter() - start
    start = time.perf_counter()
    blob = pickle.dumps(results)
    pickle.loads(blob)
    return {
        "parallel.jobs2_s": jobs2_s,
        "parallel.result_pickle_s": time.perf_counter() - start,
        "parallel.result_bytes": len(blob),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="parent's time.monotonic_ns() at spawn")
    parser.add_argument("--trace-out", default=None,
                        help="trace this repeat and write the spans here")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.experiments.common  # noqa: F401  (timed: the engine stack)
    import repro.faults.chaos as chaos
    from repro.sim.simulator import NetworkSimulator
    import_s = time.perf_counter() - start
    from benchmarks.perf import layers, workloads
    from benchmarks.perf.tracer import Tracer

    tracer = Tracer()
    installed = layers.Installed(tracer) if args.trace_out else None
    try:
        builder = workloads.WORKLOADS[args.workload].build
        jobs = builder(args.seed, quick=args.quick)
        start = time.perf_counter()
        sims = []
        for i, job in enumerate(jobs):
            tracer.run_id = i
            sims.append(
                NetworkSimulator(job.config) if job.config is not None
                else None
            )
        construct_s = time.perf_counter() - start
        setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9

        seen = []
        digest = hashlib.sha256()
        job_wall_s = []
        failures = []
        for i, job in enumerate(jobs):
            tracer.run_id = i
            if job.config is not None:
                made = [sims[i]]
                call = sims[i].run
            else:
                made = []
                call = functools.partial(
                    run_campaign, chaos, job.campaign, made
                )
            if installed is not None:
                call = tracer.span("run", call)
            start = time.perf_counter()
            try:
                result = call()
            except Exception:  # a raised simulation is a failed operation
                job_wall_s.append(time.perf_counter() - start)
                failures.append(f"{job.label}: {traceback.format_exc()}")
                continue
            job_wall_s.append(time.perf_counter() - start)
            seen.append(observe(made[0], result))
            if seen[-1]["failed"]:
                failures.append(f"{job.label}: did not finish or delivered "
                                "nothing")
            digest.update(json.dumps(
                dataclasses.asdict(result), sort_keys=True,
            ).encode())
            sims[i] = None
    finally:
        if installed is not None:
            installed.remove()

    counts = collections.Counter(import_s=import_s)
    for s in seen:
        counts.update(s["counts"])
    wall_s = sum(job_wall_s)
    out = {
        "workload": args.workload,
        "setup_s": setup_s,
        "construct_s": construct_s,
        "wall_s": wall_s,
        "job_wall_s": job_wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "flit_hops": counts["data_flits_moved"] + counts["flits_ejected"],
        "sim_cycles": counts["cycles"],
        **simulated(seen),
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "sim_digest": digest.hexdigest(),
        "counts": counts,
    }
    if installed is not None:
        out["per_layer"] = layers.derive(installed, counts)
        out["unresolved_spans"] = installed.unresolved
        if workloads.WORKLOADS[args.workload].parallel_probe:
            out["per_layer"].update(parallel_probe(
                tracer, [job.config for job in jobs]
            ))
        path = pathlib.Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(path, workload=args.workload, seed=args.seed,
                    wall_s=wall_s)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
