"""Layer boundaries of the simulator, as seen from outside.

:data:`HOOKS` is the one table of (span, owner, attribute): every
per-layer metric is measured by wrapping that attribute on its class or
module for the duration of a traced repeat and restoring it afterwards.
Class / module attributes are patched (never instances) because several
owners use ``__slots__``, hook objects are invoked through
``type(hook).__call__``, and by-name imports must be patched where the
name is looked up (``repro.sim.simulator.summarize``).

A hook on a public name that does not resolve is a hard error.  Hooks
marked ``private`` bind underscore methods: if a refactor moves one,
its span lands in ``unresolved`` and every metric derived from it is
reported ``None`` — visible, never silent.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from benchmarks.perf.tracer import Tracer


@dataclass(frozen=True)
class Hook:
    span: str
    #: ``module`` or ``module:Class`` owning the attribute.
    owner: str
    attr: str
    #: Stored individually (run granularity) instead of aggregated.
    individual: bool = False
    private: bool = False
    histogram: bool = False


_ENGINE = "repro.sim.engine:Engine"
_FAULTS = "repro.faults.model:FaultState"
_CACHE = "repro.routing.cache:RouteCache"

HOOKS = (
    Hook("simulator.construct", "repro.sim.simulator:NetworkSimulator",
         "__init__", individual=True),
    Hook("engine.run", _ENGINE, "run", individual=True),
    Hook("engine.drain", _ENGINE, "drain", individual=True),
    Hook("engine.sync_data_state", _ENGINE, "sync_data_state"),
    Hook("engine.step", _ENGINE, "step", histogram=True),
    Hook("engine.phase.dynamic_faults", _ENGINE, "_phase_dynamic_faults",
         private=True),
    Hook("engine.phase.routing_decisions", _ENGINE,
         "_phase_routing_decisions", private=True),
    Hook("engine.phase.control_transfers", _ENGINE,
         "_phase_control_transfers", private=True),
    Hook("engine.phase.data_movement", _ENGINE, "_phase_data_movement",
         private=True),
    Hook("engine.phase.gate_updates", _ENGINE, "_apply_staged_gate_updates",
         private=True),
    Hook("engine.phase.traffic", _ENGINE, "_phase_traffic", private=True),
    Hook("routing.decide", "repro.core.two_phase:TwoPhaseProtocol", "decide"),
    Hook("routing.decide", "repro.routing.duato:DuatoProtocol", "decide"),
    Hook("routing.decide", "repro.routing.mb:MBmProtocol", "decide"),
    Hook("routing.decide", "repro.routing.oblivious:DimensionOrderProtocol",
         "decide"),
    Hook("route_cache", _CACHE, "adaptive_candidates"),
    Hook("route_cache", _CACHE, "misroute_candidates"),
    Hook("route_cache", _CACHE, "escape"),
    Hook("traffic.destination", "repro.sim.traffic:TrafficGenerator",
         "destination"),
    Hook("faults.fail", _FAULTS, "fail_node"),
    Hook("faults.fail", _FAULTS, "fail_link"),
    Hook("faults.reconfigure", _FAULTS, "reconfigure"),
    Hook("faults.place_static", "repro.sim.simulator",
         "place_random_node_faults"),
    Hook("chaos.hook", "repro.faults.chaos:ChaosController", "__call__"),
    Hook("reconfig.hook", "repro.reconfig.controller:ReconfigController",
         "__call__"),
    Hook("invariants.audit", "repro.sim.invariants:InvariantAuditor",
         "audit"),
    Hook("postmortem.diagnose", "repro.sim.postmortem", "diagnose"),
    Hook("stats.summarize", "repro.sim.simulator", "summarize",
         individual=True),
)

#: RouteCache memo behind each lookup; a call that grows it is a miss.
#: Read through the slots, so a rename degrades to an unresolved probe.
_CACHE_MEMO = {
    "adaptive_candidates": "_adaptive",
    "misroute_candidates": "_misroute",
    "escape": "_escape",
}
CACHE_PROBE = "route_cache.probe"


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _decide_probe(fn, outcomes: Counter):
    def decide(self, ctx, message):
        decision = fn(self, ctx, message)
        outcomes[decision.action.name] += 1
        return decision
    return decide


def _cache_probe(fn, memo_attr: str, epoch_keyed: bool, counts: Counter):
    def lookup(self, *args, **kwargs):
        memo = getattr(self, memo_attr)
        before = len(memo)
        stale = epoch_keyed and self._epoch != self.faults.epoch
        out = fn(self, *args, **kwargs)
        if stale:
            counts["epoch_clears"] += 1
            counts["misses"] += 1
        elif len(memo) > before:
            counts["misses"] += 1
        return out
    return lookup


class Installed:
    """The hooks of one traced repeat; :meth:`remove` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.unresolved: List[str] = []
        self.decisions: Counter = Counter()
        self.cache: Counter = Counter()
        self._saved: List[tuple] = []
        cache_cls = _resolve(_CACHE)
        probe_cache = all(
            hasattr(cache_cls, name)
            for name in ("_epoch", "faults", *_CACHE_MEMO.values())
        )
        if not probe_cache:
            self.unresolved.append(CACHE_PROBE)
        try:
            for hook in HOOKS:
                owner = _resolve(hook.owner)
                original = vars(owner).get(hook.attr)
                if original is None:
                    if not hook.private:
                        raise LookupError(
                            f"benchmark hook {hook.span!r}: {hook.owner} has "
                            f"no attribute {hook.attr!r}"
                        )
                    self.unresolved.append(hook.span)
                    continue
                fn = original
                if hook.span == "routing.decide":
                    fn = _decide_probe(fn, self.decisions)
                elif hook.span == "route_cache" and probe_cache:
                    fn = _cache_probe(fn, _CACHE_MEMO[hook.attr],
                                      hook.attr != "escape", self.cache)
                if hook.individual:
                    fn = tracer.span(hook.span, fn)
                else:
                    fn = tracer.aggregate(hook.span, fn, hook.histogram)
                self._saved.append((owner, hook.attr, original))
                setattr(owner, hook.attr, fn)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def derive(installed: Installed,
           counts: Dict[str, float]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced repeat.

    ``counts`` are the engine counters the child summed over the body
    (they exist on untraced repeats too).  ``*_s`` metrics are seconds;
    which are self and which inclusive is stated in README.md.  Only
    metrics of private hooks and of the cache probe can be ``None``.
    """
    totals = installed.tracer.totals()
    unresolved = set(installed.unresolved)

    def field(span: str, key: str) -> Optional[int]:
        if span in unresolved:
            return None
        return totals.get(span, {}).get(key, 0)

    def seconds(ns: Optional[int]) -> Optional[float]:
        return None if ns is None else ns / 1e9

    def total_s(span): return seconds(field(span, "total_ns"))
    def self_s(span): return seconds(field(span, "self_ns"))
    def calls(span): return field(span, "count")

    def step_us(q):
        ns = installed.tracer.percentile_ns("engine.step", q)
        return None if ns is None else ns / 1e3

    hops = counts["data_flits_moved"] + counts["flits_ejected"]
    probe_ok = CACHE_PROBE not in unresolved
    cache_calls = calls("route_cache")
    data_movement = self_s("engine.phase.data_movement")
    out = {
        "simulator.construct_s": total_s("simulator.construct"),
        "simulator.construct_n": calls("simulator.construct"),
        "simulator.import_s": counts["import_s"],
        "engine.steps": counts["steps"],
        "engine.ff_cycles": counts["ff_cycles"],
        "engine.ff_share": _ratio(counts["ff_cycles"], counts["cycles"]),
        "engine.run_self_s": self_s("engine.run"),
        "engine.step_self_s": self_s("engine.step"),
        "engine.drain_s": total_s("engine.drain"),
        "engine.sync_data_state_s": total_s("engine.sync_data_state"),
        "engine.step_us_p50": step_us(0.50),
        "engine.step_us_p99": step_us(0.99),
        "engine.data_flits_moved": counts["data_flits_moved"],
        "engine.flits_ejected": counts["flits_ejected"],
        "engine.control_flits_sent": counts["control_flits_sent"],
        "engine.us_per_flit_hop": _ratio(
            None if data_movement is None else data_movement * 1e6, hops
        ),
        "kernel.cycles": counts["kernel_cycles"],
        "kernel.cycle_share": _ratio(counts["kernel_cycles"], counts["steps"]),
        "routing.decide_s": total_s("routing.decide"),
        "routing.decide_n": calls("routing.decide"),
        "routing.decide_us": _ratio(
            field("routing.decide", "total_ns") / 1e3, calls("routing.decide")
        ),
        "routing.reserve_share": _ratio(
            installed.decisions["RESERVE"], calls("routing.decide")
        ),
        "routing.backtrack_n": installed.decisions["BACKTRACK"],
        "routing.abort_n": installed.decisions["ABORT"],
        "route_cache.calls": cache_calls,
        "route_cache.s": total_s("route_cache"),
        "route_cache.hit_ratio": (
            _ratio(cache_calls - installed.cache["misses"], cache_calls)
            if probe_ok else None
        ),
        "route_cache.epoch_clears": (
            installed.cache["epoch_clears"] if probe_ok else None
        ),
        "traffic.destination_s": total_s("traffic.destination"),
        "traffic.destination_n": calls("traffic.destination"),
        "faults.fail_n": calls("faults.fail"),
        "faults.epoch_bumps": counts["epoch_bumps"],
        "faults.mutate_s": total_s("faults.fail") + total_s("faults.reconfigure"),
        "faults.place_static_s": total_s("faults.place_static"),
        "chaos.hook_s": total_s("chaos.hook"),
        "chaos.hook_n": calls("chaos.hook"),
        "chaos.faults_injected": counts["chaos_faults_injected"],
        "reconfig.hook_s": total_s("reconfig.hook"),
        "reconfig.hook_n": calls("reconfig.hook"),
        "reconfig.commits": counts["reconfigurations"],
        "reconfig.downtime_cycles": counts["reconfig_downtime_cycles"],
        "invariants.audit_s": total_s("invariants.audit"),
        "invariants.audit_n": calls("invariants.audit"),
        "postmortem.diagnose_s": total_s("postmortem.diagnose"),
        "postmortem.diagnose_n": calls("postmortem.diagnose"),
        "engine.deadlock_recoveries": counts["deadlock_recoveries"],
        "stats.summarize_s": total_s("stats.summarize"),
        "stats.summarize_n": calls("stats.summarize"),
        "trace.other_s": self_s("run"),
    }
    for hook in HOOKS:
        if hook.private:  # the six phases
            out[hook.span + "_s"] = self_s(hook.span)
    return out
