"""Command-line interface: ``repro-sim``.

Subcommands:

* ``run`` — one simulation with explicit parameters, printing the
  latency/throughput summary;
* ``figure`` — regenerate one of the paper's figures or tables (the
  names are the keys of
  :data:`repro.experiments.figures.FIGURES` and :data:`TABLES`);
* ``sweep`` — a latency-throughput load sweep for one protocol;
* ``chaos`` — a randomized fault-storm campaign with the invariant
  auditor and deadlock-recovery watchdog armed;
* ``storm`` — the storm resilience benchmark: identical fault storms
  through TP-only vs online-reconfiguration recovery, head-to-head.

Examples::

    repro-sim run --protocol tp --load 0.15 --faults 5
    repro-sim run --pattern hotspot --pattern-param hotspot_fraction=0.3
    repro-sim figure 12
    REPRO_PAPER_SCALE=1 repro-sim figure 13
    repro-sim sweep --protocol mb --loads 0.05,0.1,0.2
    repro-sim sweep --protocol tp --jobs 4
    repro-sim sweep --pattern uniform,hotspot --loads 0.05,0.1
    repro-sim sweep --pattern transpose --find-knee
    repro-sim sweep --pattern uniform,bursty --find-knee --out knees.json
    repro-sim sweep --pattern bursty --find-knee --knee-tol 0.01
    repro-sim sweep --loads 0.28 --profile
    repro-sim chaos --seeds 20 --protocols tp,dp
    repro-sim chaos --seeds 2 --profile --profile-out chaos.pstats
    REPRO_JOBS=8 repro-sim chaos --seeds 40 --pattern hotspot
    repro-sim storm --seeds 4 --scenarios gridlock,linkstorm
    REPRO_JOBS=8 repro-sim storm --out BENCH_resilience.json

``--pattern`` selects a workload from the catalog in EXPERIMENTS.md
(uniform, hotspot, transpose, complement, tornado, nearest, bursty);
``--pattern-param key=value`` (repeatable) sets its knobs.  ``sweep``
takes a comma-separated ``--pattern`` list: one series per pattern on
the fixed load grid, or with ``--find-knee`` one knee per pattern from
the adaptive saturation-knee search of
:mod:`repro.experiments.saturation` (``--out`` writes them all to one
``BENCH_saturation.json`` snapshot).

``--jobs N`` (or ``REPRO_JOBS=N``) fans replications / campaign runs
out over N worker processes; aggregation order is deterministic, so
the output is identical to a serial run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.experiments import (
    base_config,
    experiment_scale,
    formula_table,
    sweep_loads,
    theorem_table,
)
from repro.experiments.figures import FIGURES
from repro.experiments.report import render_series_table
from repro.sim import validation
from repro.sim.config import FaultConfig, RecoveryConfig, SimulationConfig
from repro.sim.simulator import NetworkSimulator
from repro.sim.traffic import TrafficGenerator


def _pattern_param(pair: str) -> Tuple[str, object]:
    """One (repeatable) ``--pattern-param key=value`` option, as a
    ``(key, value)`` pair.

    Values are coerced int → float → comma-separated int list →
    string, covering every knob in the catalog (counts, fractions,
    and explicit ``hotspot_nodes``: a list, or one id).
    """
    key, sep, raw = pair.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expects key=value, got {pair!r}")
    value: object = raw
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            if "," in raw:
                try:
                    value = [int(x) for x in raw.split(",")]
                except ValueError:
                    pass
    return key, value


def _jobs(raw: str) -> int:
    """``--jobs``: a worker count of at least 1."""
    if not raw.isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(
            f"expects a worker count >= 1, got {raw!r}"
        )
    return int(raw)


def _pattern_list(raw: str) -> List[str]:
    """``sweep --pattern``: comma-separated catalog patterns."""
    patterns = raw.split(",")
    unknown = [p for p in patterns if p not in TrafficGenerator.PATTERNS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown pattern {', '.join(unknown)}; choose from "
            f"{', '.join(TrafficGenerator.PATTERNS)}"
        )
    return patterns


class _UsageError(Exception):
    """A command's arguments were rejected: :func:`main` reports it as
    ``parser.error`` (exit 2) instead of a traceback."""


def _cmd_run(args: argparse.Namespace) -> int:
    params = {}
    if args.protocol == "tp":
        params["k_unsafe"] = args.k_unsafe
    try:
        cfg = SimulationConfig(
            k=args.k,
            n=args.n,
            protocol=args.protocol,
            protocol_params=params,
            message_length=args.message_length,
            traffic=args.pattern,
            traffic_params=dict(args.pattern_param or ()),
            offered_load=args.load,
            warmup_cycles=args.warmup,
            measure_cycles=args.cycles,
            seed=args.seed,
            faults=FaultConfig(
                static_node_faults=args.faults,
                dynamic_faults=args.dynamic_faults,
            ),
            recovery=RecoveryConfig(
                tail_ack=args.tail_ack, retransmit=args.tail_ack
            ),
        )
        simulator = NetworkSimulator(cfg)
    except ValueError as exc:
        # A value the config, the topology or the fault placement
        # rejects; an error of the run itself keeps its traceback.
        raise _UsageError(f"run: {exc}") from exc
    result = simulator.run()
    print(
        f"protocol={args.protocol} pattern={args.pattern} "
        f"load={args.load} faults={args.faults} "
        f"dynamic={args.dynamic_faults}"
    )
    print(
        f"latency  {result.latency_mean:.1f} +- {result.latency_ci95:.1f} "
        f"cycles ({result.latency_count} messages)"
    )
    print(f"throughput {result.throughput:.4f} flits/node/cycle")
    print(
        f"delivered {result.delivered}  dropped {result.dropped}  "
        f"killed {result.killed}  retransmissions {result.retransmissions}"
    )
    if result.drop_reasons:
        print(f"drop reasons: {result.drop_reasons}")
    return 0


#: The ``figure`` names that are tables, not figures: ``(run, render)``.
TABLES = {
    "formulas": (formula_table.run, formula_table.render),
    "theorems": (theorem_table.run, theorem_table.render),
    "validation": (validation.validate, validation.render),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    # Also accepted: fig12, hw_acks, length-sweep.
    name = args.name.lower().removeprefix("fig").replace("_", "-")
    name = name.removesuffix("-sweep")
    if name in FIGURES:
        run, render = FIGURES[name].run, FIGURES[name].render
    elif name in TABLES:
        run, render = TABLES[name]
    else:
        print(f"unknown figure {args.name!r}; choose from "
              f"{' | '.join([*FIGURES, *TABLES])}", file=sys.stderr)
        return 2
    print(render(run()))
    return 0


def _run_profiled(args: argparse.Namespace) -> int:
    """Run ``args.func`` under cProfile (the ``--profile`` flag).

    With ``--profile-out`` the raw stats are dumped to that path for
    ``pstats`` / ``snakeviz``-style offline digging; otherwise the top
    entries by cumulative time go to stderr, so profiling output never
    corrupts a table or JSON payload on stdout.  Profiling forces
    ``--jobs`` to serial: work fanned out to worker processes would be
    invisible to the parent's profiler and the numbers would lie.
    """
    import cProfile
    import pstats

    if getattr(args, "jobs", None) not in (None, 1):
        print("--profile forces --jobs 1 (worker processes are "
              "invisible to the profiler)", file=sys.stderr)
    args.jobs = 1
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = args.func(args)
    finally:
        profiler.disable()
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print(f"wrote profile stats to {args.profile_out}",
                  file=sys.stderr)
        else:
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(25)
    return status


def _add_profile_args(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--profile", action="store_true",
        help=(
            "run under cProfile; top-25 cumulative functions are "
            "printed to stderr (forces --jobs 1)"
        ),
    )
    subparser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help=(
            "with --profile: dump raw pstats data to PATH instead of "
            "printing the stderr summary"
        ),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import saturation

    params = {}
    if args.protocol == "tp":
        params["k_unsafe"] = args.k_unsafe
    traffic_params = dict(args.pattern_param or ())
    try:
        if args.find_knee:
            saturation.check_search(
                args.knee_tol, saturation.DEFAULT_LOW_LOAD,
                saturation.DEFAULT_MAX_LOAD,
            )
            loads = [saturation.DEFAULT_LOW_LOAD]
        else:
            loads = [float(x) for x in args.loads.split(",")]
        # Build every point's simulator before any run, as ``run``
        # does: a value the config, the topology, the fault placement
        # or the workload rejects is a usage error, not a traceback
        # from the middle of a sweep.
        for pattern in args.pattern:
            for load in loads:
                NetworkSimulator(base_config(
                    experiment_scale(), args.protocol, params,
                    offered_load=load, traffic=pattern,
                    traffic_params=traffic_params,
                    faults=FaultConfig(static_node_faults=args.faults),
                ))
    except ValueError as exc:
        raise _UsageError(f"sweep: {exc}") from exc
    if args.find_knee:
        results = [
            saturation.find_knee(
                experiment_scale(),
                args.protocol,
                params,
                traffic=pattern,
                traffic_params=traffic_params,
                tolerance=args.knee_tol,
                static_faults=args.faults,
                jobs=args.jobs,
            )
            for pattern in args.pattern
        ]
        print(saturation.render(results))
        for result in results:
            lo, hi = result.bracket
            print(f"{result.pattern} knee bracket: [{lo:.4f}, {hi:.4f}]")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(saturation.snapshot(results), fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.out}")
        return 0
    series = [
        sweep_loads(
            experiment_scale(),
            pattern,
            args.protocol,
            params,
            loads=loads,
            static_faults=args.faults,
            traffic=pattern,
            traffic_params=traffic_params,
            jobs=args.jobs,
        )
        for pattern in args.pattern
    ]
    title = f"sweep: {args.protocol} ({', '.join(args.pattern)})"
    print(render_series_table(series, title=title))
    return 0


def _run_campaign(args: argparse.Namespace, campaign, spec_class,
                  **fields) -> int:
    """The flow ``chaos`` and ``storm`` share: an unknown name in the
    spec exits 2, a campaign with a failed run exits 1."""
    try:
        spec = spec_class(
            seeds=tuple(range(args.seeds)), k=args.k, n=args.n, **fields
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    result = campaign(spec, jobs=args.jobs)
    print(result.render())
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            json.dump(result.report(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if result.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import chaos

    return _run_campaign(
        args, chaos.run_campaign, chaos.ChaosSpec,
        protocols=tuple(args.protocols.split(",")),
        offered_load=args.load,
        traffic=args.pattern,
        traffic_params=dict(args.pattern_param or ()),
        bursts=args.bursts,
        burst_size=args.burst_size,
        node_fault_fraction=args.node_fault_fraction,
        watchdog_cycles=args.watchdog,
    )


def _cmd_storm(args: argparse.Namespace) -> int:
    from repro.faults import chaos

    return _run_campaign(
        args, chaos.run_storm_campaign, chaos.StormSpec,
        scenarios=tuple(args.scenarios.split(",")),
    )


def _add_campaign_args(subparser: argparse.ArgumentParser, seeds: int,
                       grid: str) -> None:
    """The arguments ``chaos`` and ``storm`` share; ``grid`` names what
    one seed is crossed with."""
    subparser.add_argument("--seeds", type=int, default=seeds,
                           help=f"number of seeds per {grid}")
    subparser.add_argument("--k", type=int, default=6)
    subparser.add_argument("--n", type=int, default=2)
    subparser.add_argument(
        "--jobs", type=_jobs, default=None,
        help=(
            f"worker processes for the {grid} x seed grid "
            "(default: REPRO_JOBS env var, else serial)"
        ),
    )
    _add_profile_args(subparser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Flit-level simulator for 'Configurable Flow Control "
            "Mechanisms for Fault-Tolerant Routing' (ISCA 1995)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--protocol", default="tp",
                       choices=("tp", "dp", "mb", "det"))
    run_p.add_argument("--k", type=int, default=8, help="network radix")
    run_p.add_argument("--n", type=int, default=2, help="dimensions")
    run_p.add_argument("--load", type=float, default=0.1,
                       help="offered load, flits/node/cycle")
    run_p.add_argument("--pattern", default="uniform",
                       choices=TrafficGenerator.PATTERNS,
                       help="workload pattern (EXPERIMENTS.md catalog)")
    run_p.add_argument(
        "--pattern-param", action="append", type=_pattern_param,
        metavar="KEY=VALUE",
        help="pattern knob, e.g. hotspot_fraction=0.3 (repeatable)",
    )
    run_p.add_argument("--message-length", type=int, default=32)
    run_p.add_argument("--faults", type=int, default=0,
                       help="static node faults")
    run_p.add_argument("--dynamic-faults", type=int, default=0)
    run_p.add_argument("--tail-ack", action="store_true",
                       help="reliable delivery with tail acknowledgments")
    run_p.add_argument("--k-unsafe", type=int, default=0,
                       help="TP scouting distance past unsafe channels")
    run_p.add_argument("--warmup", type=int, default=1000)
    run_p.add_argument("--cycles", type=int, default=5000)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.set_defaults(func=_cmd_run)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("name", help=" | ".join([*FIGURES, *TABLES]))
    fig_p.set_defaults(func=_cmd_figure)

    sweep_p = sub.add_parser("sweep", help="latency-throughput load sweep")
    sweep_p.add_argument("--protocol", default="tp",
                         choices=("tp", "dp", "mb"))
    sweep_p.add_argument("--loads", default="0.05,0.1,0.2,0.3")
    sweep_p.add_argument("--faults", type=int, default=0)
    sweep_p.add_argument("--k-unsafe", type=int, default=0)
    sweep_p.add_argument(
        "--pattern", default="uniform", type=_pattern_list,
        help=(
            "comma-separated workload patterns (EXPERIMENTS.md catalog): "
            "one series, or one knee, per pattern"
        ),
    )
    sweep_p.add_argument(
        "--pattern-param", action="append", type=_pattern_param,
        metavar="KEY=VALUE",
        help="pattern knob, e.g. burst_on=64 (repeatable)",
    )
    sweep_p.add_argument(
        "--find-knee", action="store_true",
        help=(
            "replace the fixed load grid with the adaptive "
            "saturation-knee search (bracket + bisect)"
        ),
    )
    sweep_p.add_argument(
        "--knee-tol", type=float, default=0.02,
        help="bisection tolerance on the knee load (default: 0.02)",
    )
    sweep_p.add_argument(
        "--out", default=None,
        help="with --find-knee: write a BENCH_saturation.json snapshot",
    )
    sweep_p.add_argument(
        "--jobs", type=_jobs, default=None,
        help=(
            "worker processes for replications (default: REPRO_JOBS "
            "env var, else serial); results are identical to a "
            "serial run"
        ),
    )
    _add_profile_args(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    chaos_p = sub.add_parser(
        "chaos", help="randomized fault-storm resilience campaign"
    )
    _add_campaign_args(chaos_p, seeds=20, grid="protocol")
    chaos_p.add_argument(
        "--protocols", default="tp,dp,det-naive",
        help=(
            "comma-separated protocol names; 'det-naive' is the "
            "deadlock-prone gridlock scenario"
        ),
    )
    chaos_p.add_argument("--load", type=float, default=0.08)
    chaos_p.add_argument("--pattern", default="uniform",
                         choices=TrafficGenerator.PATTERNS,
                         help="workload pattern under the fault storm")
    chaos_p.add_argument(
        "--pattern-param", action="append", type=_pattern_param,
        metavar="KEY=VALUE",
        help="pattern knob, e.g. hotspot_count=2 (repeatable)",
    )
    chaos_p.add_argument("--bursts", type=int, default=3,
                         help="fault bursts per run")
    chaos_p.add_argument("--burst-size", type=int, default=2,
                         help="faults per burst")
    chaos_p.add_argument("--node-fault-fraction", type=float, default=0.25,
                         help="fraction of faults that kill whole nodes")
    chaos_p.add_argument("--watchdog", type=int, default=120,
                         help="watchdog window in cycles")
    chaos_p.set_defaults(func=_cmd_chaos)

    storm_p = sub.add_parser(
        "storm",
        help=(
            "storm resilience benchmark: TP-only vs online "
            "reconfiguration, head-to-head"
        ),
    )
    _add_campaign_args(storm_p, seeds=4, grid="(scenario, arm)")
    storm_p.add_argument(
        "--scenarios", default="gridlock,linkstorm",
        help="comma-separated storm scenario names",
    )
    storm_p.add_argument(
        "--out", default=None,
        help="write the BENCH_resilience.json payload here",
    )
    storm_p.set_defaults(func=_cmd_storm)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.out and not args.find_knee:
        parser.error("sweep: --out writes a knee snapshot; it needs "
                     "--find-knee")
    if getattr(args, "profile", False):
        return _run_profiled(args)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
