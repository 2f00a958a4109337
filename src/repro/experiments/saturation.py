"""Auto-knee saturation sweeps per traffic pattern (DESIGN.md §9).

The paper's latency-throughput figures read the saturation point off a
fixed load grid; :func:`find_knee` locates it adaptively instead.  A
load is *saturated* when its mean latency exceeds ``latency_factor``
(default 3.0 — the same criterion as
:meth:`repro.experiments.common.Series.saturation_throughput`) times
the zero-load latency, or when the network never drains at all.  The
driver measures the zero-load baseline, brackets the knee by doubling
the load until a probe saturates, then bisects the bracket until it is
narrower than ``tolerance`` — so the reported knee is within one
bisection step of the true crossing.

CLI: ``repro-sim sweep --pattern uniform,hotspot --find-knee`` (one
knee per pattern; ``--out`` writes a ``BENCH_saturation.json``
snapshot diffable with ``benchmarks/compare_bench.py --key
knee_throughput``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.common import Scale, run_point

#: Latency multiple over the zero-load baseline that defines saturation
#: (matches ``Series.saturation_throughput``).
DEFAULT_LATENCY_FACTOR = 3.0
#: Zero-load probe (flits/node/cycle) used to measure the baseline.
DEFAULT_LOW_LOAD = 0.02
#: Bracketing never pushes the offered load past this.
DEFAULT_MAX_LOAD = 0.72
#: Bisection stops when the bracket is narrower than this.
DEFAULT_TOLERANCE = 0.02


@dataclass
class KneeProbe:
    """One measured load during bracketing/bisection."""

    offered_load: float
    latency: float
    throughput: float
    saturated: bool


@dataclass
class KneeResult:
    """The located saturation knee for one (pattern, protocol) pair."""

    pattern: str
    protocol: str
    scale_name: str
    #: Highest probed load still below the saturation criterion.
    knee_load: float
    #: Accepted throughput (flits/node/cycle) at ``knee_load``.
    knee_throughput: float
    #: Mean latency at the zero-load probe.
    base_latency: float
    latency_factor: float
    tolerance: float
    #: Static node faults in every probe's network (0: fault-free).
    static_faults: int = 0
    #: Every probe, in measurement order (baseline first).
    probes: List[KneeProbe] = field(default_factory=list)

    @property
    def bracket(self) -> tuple:
        """(last unsaturated load, first saturated load) — the knee
        lies inside; the gap is at most ``tolerance`` unless bracketing
        hit the load ceiling without ever saturating."""
        lo = max(p.offered_load for p in self.probes if not p.saturated)
        sat = [p.offered_load for p in self.probes if p.saturated]
        return (lo, min(sat) if sat else float("inf"))


def _probe(scale: Scale, protocol: str, protocol_params: Optional[dict],
           load: float, threshold: float, **point_kwargs) -> KneeProbe:
    """Measure one load; never-drained points count as saturated."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            rep = run_point(
                scale, protocol, protocol_params, load, **point_kwargs
            )
        except RuntimeError:
            # Every replication failed to drain: far past the knee.
            return KneeProbe(load, float("inf"), float("nan"), True)
    latency = rep.latency_mean
    saturated = math.isnan(latency) or latency > threshold
    return KneeProbe(load, latency, rep.throughput_mean, saturated)


def check_search(tolerance: float, low_load: float,
                 max_load: float) -> None:
    """Reject a search :func:`find_knee` could not run: a tolerance
    that is not finite and positive (the bisection would never
    terminate) or an empty load range."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(
            f"tolerance must be finite and > 0, got {tolerance} "
            "(bisection would never terminate)"
        )
    if not 0 < low_load < max_load:
        raise ValueError(
            f"need 0 < low_load < max_load, got low_load={low_load}, "
            f"max_load={max_load}"
        )


def find_knee(
    scale: Scale,
    protocol: str,
    protocol_params: Optional[dict] = None,
    traffic: str = "uniform",
    latency_factor: float = DEFAULT_LATENCY_FACTOR,
    low_load: float = DEFAULT_LOW_LOAD,
    max_load: float = DEFAULT_MAX_LOAD,
    tolerance: float = DEFAULT_TOLERANCE,
    base_seed: int = 1,
    **point_kwargs,
) -> KneeResult:
    """Locate the saturation knee for one traffic pattern.

    Three stages, each reusing :func:`run_point` (so every probe gets
    the paper's replication-until-confident treatment; the remaining
    keyword arguments — ``traffic_params``, ``static_faults``,
    ``jobs`` … — go to every probe's :func:`run_point`):

    1. **Baseline** — measure latency at ``low_load``; the saturation
       threshold is ``latency_factor`` times that.
    2. **Bracket** — double the load from ``low_load`` until a probe
       saturates (or ``max_load`` is reached, in which case the
       network never saturated in range and the highest load is the
       knee).
    3. **Bisect** — shrink the (unsaturated, saturated) bracket until
       it is narrower than ``tolerance``.

    Every probe at a distinct load uses a distinct ``base_seed`` offset
    so replications never share seeds across loads.

    Raises :class:`ValueError` on a non-positive ``tolerance`` (the
    bisection would never terminate) or an empty load range, and
    :class:`RuntimeError` when no knee exists in range: the zero-load
    baseline itself never drains (or delivers nothing), or every probe
    above ``low_load`` saturates so the knee was never bracketed from
    below — in both cases the honest answer is "the knee lies at or
    below the probe floor", not a fabricated ``knee_load == low_load``.
    """
    check_search(tolerance, low_load, max_load)
    probes: List[KneeProbe] = []

    def measure(load: float, threshold: float) -> KneeProbe:
        p = _probe(
            scale, protocol, protocol_params, load, threshold,
            traffic=traffic, base_seed=base_seed + 1000 * len(probes),
            **point_kwargs,
        )
        probes.append(p)
        return p

    base = measure(low_load, float("inf"))
    if math.isinf(base.latency):
        # _probe maps an all-replications-undrained run_point to an
        # infinite-latency probe; at the baseline that means the
        # network is wedged below the probe floor.
        raise RuntimeError(
            f"pattern {traffic!r}: no replication drained at the "
            f"zero-load baseline probe ({low_load}); the network "
            "saturates below the probe floor — lower low_load"
        )
    if math.isnan(base.latency):
        raise RuntimeError(
            f"pattern {traffic!r}: the zero-load baseline probe "
            f"({low_load}) delivered no messages, so there is no "
            "baseline latency to define the saturation threshold — "
            "lower low_load or lengthen the measurement window"
        )
    threshold = latency_factor * base.latency

    # Bracket: double until saturated or out of range.
    lo = low_load
    lo_probe = base
    hi = min(2 * low_load, max_load)
    while True:
        p = measure(hi, threshold)
        if p.saturated:
            break
        lo, lo_probe = hi, p
        if hi >= max_load:
            hi = float("inf")  # never saturated in range
            break
        hi = min(2 * hi, max_load)

    # Bisect the bracket down to the tolerance.
    if math.isfinite(hi):
        while hi - lo > tolerance:
            mid = (lo + hi) / 2
            p = measure(mid, threshold)
            if p.saturated:
                hi = mid
            else:
                lo, lo_probe = mid, p

    # ``lo`` only moves off ``low_load`` when a probe *above* the
    # baseline came back unsaturated.  If it never did, the knee was
    # never bracketed from below: the baseline cannot certify its own
    # load (it is measured against an infinite threshold), so
    # returning ``knee_load == low_load`` would fabricate a knee for a
    # network that may saturate below the probe floor.
    if math.isfinite(hi) and lo == low_load:
        raise RuntimeError(
            f"pattern {traffic!r}: the first probe above the baseline "
            f"already saturated and bisection found no unsaturated "
            f"load in ({low_load}, {hi:.6g}); the knee lies at or "
            "below the zero-load probe — lower low_load"
        )

    return KneeResult(
        pattern=traffic,
        protocol=protocol,
        scale_name=scale.name,
        knee_load=lo,
        knee_throughput=lo_probe.throughput,
        base_latency=base.latency,
        latency_factor=latency_factor,
        tolerance=tolerance,
        static_faults=point_kwargs.get("static_faults", 0),
        probes=probes,
    )


def render(results: List[KneeResult]) -> str:
    """Aligned ASCII table of located knees."""
    header = (
        f"{'pattern':<12} {'protocol':>8} {'faults':>6} {'knee load':>10} "
        f"{'knee tput':>10} {'base lat':>9} {'probes':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.pattern:<12} {r.protocol:>8} {r.static_faults:>6} "
            f"{r.knee_load:>10.4f} {r.knee_throughput:>10.4f} "
            f"{r.base_latency:>9.1f} {len(r.probes):>6}"
        )
    return "\n".join(lines)


def snapshot(results: List[KneeResult]) -> Dict:
    """A ``BENCH_saturation.json`` payload.

    Shaped like ``BENCH_engine.json`` — a ``workloads`` list keyed by
    ``workload`` name — so ``benchmarks/compare_bench.py`` diffs two
    snapshots directly (``--key knee_throughput`` or
    ``--key knee_load``).  A faulted knee's workload is
    ``pattern/protocol/<n>F``, so it never diffs against a fault-free
    one; a fault-free knee keeps the ``pattern/protocol`` key.
    """
    return {
        "scale": results[0].scale_name if results else None,
        "workloads": [
            {
                "workload": f"{r.pattern}/{r.protocol}"
                + (f"/{r.static_faults}F" if r.static_faults else ""),
                "knee_load": r.knee_load,
                "knee_throughput": r.knee_throughput,
                "base_latency": r.base_latency,
                "probes": len(r.probes),
            }
            for r in results
        ],
    }
