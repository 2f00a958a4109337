"""Determinism regression suite (the engine refactor's safety net).

Two simulations built from the same :class:`SimulationConfig` (same
seed) must be *byte-identical*: every field of the resulting
:class:`RunResult` — including the full latency sample list, the
deadlock-victim order, and every counter — must match exactly.  This is
what makes aggressive scheduling refactors in the engine safe to land,
and it is the foundation of the parallel campaign runner's
serial-equivalence guarantee (a worker process replays the same config
and must reach the same result).

The matrix covers every flow-control mechanism of the paper: wormhole
(DP), scouting SR(K) (TP conservative), PCS (MB-m), TP aggressive, and
plain dimension-order — plus a dynamic-fault scenario and a
deadlock-recovery scenario, which exercise the teardown/kill machinery.

Every pinned config additionally runs on the reference engine
(``reference_engine.py``: every cycle executed, every header re-decided,
every busy queue visited, the data phase restated from the rules) and
must produce a byte-identical RunResult — the production engine's
fast-forward, parking, quiet flags and attention set may only skip work
the reference proves a no-op — including under a chaos hook and
composed through ``parallel.run_configs``.

The two engines still share the control plane, so the production result
of every pinned config is also pinned against
``golden_runresults.json``.  When a PR *means* to change behaviour,
regenerate the file and say why in the PR:

    PYTHONPATH=src python -m tests.sim.test_determinism
"""

import dataclasses
import functools
import hashlib
import json
import math
import pathlib
import random
import warnings

import pytest

from repro.faults.chaos import ChaosController
from repro.faults.injection import DynamicFaultSchedule
from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.sim.parallel import run_configs
from repro.sim.simulator import NetworkSimulator
from tests.sim.reference_engine import ReferenceSimulator


def run_twice(cfg: SimulationConfig):
    return NetworkSimulator(cfg).run(), NetworkSimulator(cfg).run()


def assert_identical(a, b):
    """Field-by-field equality, reported per field for diagnosis.

    Fields are compared as the JSON ``result_digest`` hashes, so a NaN
    (``latency_mean`` of a window with no delivery) equals itself.
    """
    da = dataclasses.asdict(a)
    db = dataclasses.asdict(b)
    assert set(da) == set(db)
    for name in da:
        assert (
            json.dumps(da[name], sort_keys=True)
            == json.dumps(db[name], sort_keys=True)
        ), (
            f"RunResult.{name} differs between identical-config runs: "
            f"{da[name]!r} != {db[name]!r}"
        )


PROTOCOL_MATRIX = [
    # (id, protocol, protocol_params)
    ("wr-dp", "dp", {}),
    ("pcs-mb", "mb", {}),
    ("tp-aggressive", "tp", {"k_unsafe": 0}),
    ("sr-tp-conservative", "tp", {"k_unsafe": 3}),
    ("det", "det", {}),
]


def _protocol_cfg(protocol, params):
    return SimulationConfig(
        k=6, n=2, protocol=protocol, protocol_params=params,
        offered_load=0.10, message_length=8,
        warmup_cycles=150, measure_cycles=600, drain_cycles=2000,
        seed=17,
    )


def _static_fault_cfg():
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=150, measure_cycles=600, drain_cycles=2000,
        seed=9, faults=FaultConfig(static_node_faults=3),
    )


def _dynamic_fault_cfg():
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=150, measure_cycles=800, drain_cycles=4000,
        seed=19,
        faults=FaultConfig(dynamic_faults=4, dynamic_start=150),
        recovery=RecoveryConfig(tail_ack=True, retransmit=True),
    )


def _hardware_ack_cfg():
    return SimulationConfig(
        k=6, n=2, protocol="tp", protocol_params={"k_unsafe": 3},
        offered_load=0.10, message_length=8, hardware_acks=True,
        warmup_cycles=150, measure_cycles=600, drain_cycles=2000,
        seed=21,
    )


def _deadlock_recovery_cfg():
    return SimulationConfig(
        k=6, n=2, protocol="det", protocol_params={"dateline": False},
        offered_load=0.30, message_length=16,
        warmup_cycles=100, measure_cycles=800, drain_cycles=8000,
        seed=3, watchdog_cycles=120, max_header_wait=6000,
    )


def _low_load_idle_cfg():
    # Mostly-quiescent run: the fast-forward path dominates here.
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.005, message_length=8,
        warmup_cycles=300, measure_cycles=2500, drain_cycles=2000,
        seed=5,
    )


def _audited_cfg():
    # Invariant-audit ticks are part of the event horizon.
    return SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=0.02, message_length=8,
        warmup_cycles=150, measure_cycles=900, drain_cycles=2000,
        seed=13,
        resilience=ResilienceConfig(audit_invariants=True, audit_every=25),
    )


def _reconfig_cfg():
    # Online reconfiguration: accumulating dynamic link faults push
    # recovery pressure over the threshold, so the controller's
    # monitor/drain/commit cycle (and its event horizon) is exercised.
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=150, measure_cycles=800, drain_cycles=4000,
        seed=9, watchdog_cycles=120, max_header_wait=6000,
        faults=FaultConfig(dynamic_faults=8, dynamic_start=150),
        resilience=ResilienceConfig(
            audit_invariants=True, audit_every=20,
            reconfig=True, reconfig_check_every=16,
            reconfig_window=256, reconfig_threshold=2,
            reconfig_drain_timeout=120, reconfig_cooldown=300,
        ),
    )


def _reconfig_idle_cfg():
    # Reconfiguration armed but never triggered on a mostly-quiescent
    # network: the controller's monitor ticks join the event horizon
    # and must not break the quiescence skip.
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.005, message_length=8,
        warmup_cycles=300, measure_cycles=2500, drain_cycles=2000,
        seed=5,
        resilience=ResilienceConfig(
            audit_invariants=True, audit_every=50, reconfig=True,
        ),
    )


#: Workload-catalog matrix (EXPERIMENTS.md): every traffic pattern must
#: honor the injection-process fast-forward contract, including bursty
#: dwell draws and the hotspot/bursty combination.  Low load so the
#: quiescence skip path genuinely engages for each pattern.
TRAFFIC_MATRIX = [
    # (id, traffic, traffic_params)
    ("hotspot", "hotspot", {"hotspot_fraction": 0.4, "hotspot_count": 2}),
    ("transpose", "transpose", {}),
    ("complement", "complement", {}),
    ("tornado", "tornado", {}),
    ("bursty", "bursty", {"burst_on": 24, "burst_off": 96}),
    ("hotspot-bursty", "hotspot",
     {"hotspot_fraction": 0.4, "burst_on": 24, "burst_off": 96,
      "burst_off_load": 0.1}),
]


def _traffic_cfg(traffic, params):
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.02, message_length=8,
        traffic=traffic, traffic_params=params,
        warmup_cycles=200, measure_cycles=1500, drain_cycles=2000,
        seed=23,
    )


#: Every pinned configuration of this suite, by id; each runs on the
#: production and on the reference engine.
PINNED_CONFIGS = {
    **{
        f"proto-{pid}": (lambda p=proto, kw=params: _protocol_cfg(p, kw))
        for pid, proto, params in PROTOCOL_MATRIX
    },
    **{
        f"traffic-{tid}": (lambda t=traffic, kw=params: _traffic_cfg(t, kw))
        for tid, traffic, params in TRAFFIC_MATRIX
    },
    "static-faults": _static_fault_cfg,
    "dynamic-faults": _dynamic_fault_cfg,
    "hardware-acks": _hardware_ack_cfg,
    "deadlock-recovery": _deadlock_recovery_cfg,
    "low-load-idle": _low_load_idle_cfg,
    "audited": _audited_cfg,
    "reconfig": _reconfig_cfg,
    "reconfig-idle": _reconfig_idle_cfg,
}


@functools.lru_cache(maxsize=None)
def pinned_run(name: str):
    """The production result of one pinned config.

    Memoized so the reference comparison and the golden check share the
    run; a RunResult is never mutated by a test.
    """
    return NetworkSimulator(PINNED_CONFIGS[name]()).run()


GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_runresults.json")


def result_digest(result) -> str:
    """sha256 of the sorted-key JSON of every RunResult field."""
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_pinned_results_match_golden(name):
    """Production results equal the committed digests, so a slip in
    code both engines share cannot pass as 'identical'."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(PINNED_CONFIGS)
    assert result_digest(pinned_run(name)) == golden[name], (
        f"RunResult of pinned config {name!r} changed; if intended, "
        "regenerate with: PYTHONPATH=src python -m tests.sim.test_determinism"
    )


@pytest.mark.parametrize(
    "protocol,params",
    [m[1:] for m in PROTOCOL_MATRIX],
    ids=[m[0] for m in PROTOCOL_MATRIX],
)
def test_protocol_determinism(protocol, params):
    cfg = _protocol_cfg(protocol, params)
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert_identical(a, b)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seed_sensitivity_and_stability(seed):
    """Each seed is stable; different seeds genuinely differ."""
    base = SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=100, measure_cycles=500, drain_cycles=1500,
    )
    a, b = run_twice(base.with_(seed=seed))
    assert_identical(a, b)
    other = NetworkSimulator(base.with_(seed=seed + 10)).run()
    assert (a.latency_mean, a.delivered) != (
        other.latency_mean, other.delivered
    )


def test_static_fault_determinism():
    cfg = _static_fault_cfg()
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert_identical(a, b)


def test_dynamic_fault_determinism():
    """Dynamic faults drive kill-flit teardown and retransmission."""
    cfg = _dynamic_fault_cfg()
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert a.teardown_counts.get("fault", 0) > 0, (
        "scenario must actually exercise fault teardown"
    )
    assert_identical(a, b)


def test_reconfig_determinism():
    """Online reconfiguration (drain, ejection order, commit cycle)
    must replay exactly, and the pinned scenario must actually
    reconfigure — otherwise its matrix entries prove nothing."""
    cfg = _reconfig_cfg()
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert a.reconfigurations > 0, (
        "scenario must actually commit a reconfiguration"
    )
    assert_identical(a, b)


def test_reconfig_idle_never_triggers():
    """The idle pinned config arms the controller without firing it."""
    result = NetworkSimulator(_reconfig_idle_cfg()).run()
    assert result.reconfigurations == 0
    assert result.reconfig_downtime == 0


def test_hardware_ack_determinism():
    """The dedicated-ack wires use a separate active set in the engine."""
    cfg = _hardware_ack_cfg()
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert_identical(a, b)


def test_deadlock_recovery_determinism():
    """Victim selection and ejection order must replay exactly."""
    cfg = _deadlock_recovery_cfg()
    a, b = run_twice(cfg)
    assert a.deadlock_recoveries > 0, (
        "gridlock scenario must actually trigger recovery"
    )
    assert a.deadlock_victims == b.deadlock_victims
    assert_identical(a, b)


# ======================================================================
# Production engine vs the reference engine (reference_engine.py).
# ======================================================================
@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_production_matches_reference(name):
    """Fast-forward, parking, quiet flags and the attention set may
    only skip work the reference engine proves a no-op."""
    reference = ReferenceSimulator(PINNED_CONFIGS[name]()).run()
    assert_identical(pinned_run(name), reference)


def test_identical_when_nothing_is_delivered_in_the_window():
    """A two-cycle window in which no message is created leaves
    latency_mean NaN (warmup traffic still flows through it); equal
    results must still compare equal."""
    cfg = _protocol_cfg("tp", {}).with_(offered_load=0.05, measure_cycles=2)
    a, b = run_twice(cfg)
    assert a.delivered == 0 and math.isnan(a.latency_mean)
    assert a.throughput > 0
    assert_identical(a, b)
    assert_identical(a, ReferenceSimulator(cfg).run())


def executed_steps(engine) -> int:
    return engine.cycle - engine.fast_forwarded_cycles


def lone_message_cfg(**overrides) -> SimulationConfig:
    """An idle 16-ary 2-cube for hand-injected 32-flit messages."""
    return SimulationConfig(
        k=16, n=2, protocol="tp", offered_load=0.0, message_length=32,
        warmup_cycles=0, measure_cycles=200, drain_cycles=0,
    ).with_(**overrides)


class DeclaredHook:
    """Declares that it never acts."""

    def __call__(self, engine):
        pass

    def next_event_cycle(self, engine):
        return None


def test_fast_forward_actually_skips_cycles():
    """The low-load pinned config must exercise the skip path.  Executed
    steps repeat exactly, so the count is pinned: jumping the empty
    network alone leaves 567, the worm jump without the set-up jump
    342, stepping each message's own events as well 185, a shortened
    jump something between — caught here without a timer."""
    sim = NetworkSimulator(_low_load_idle_cfg())
    sim.run()
    assert sim.engine.cycle == 2800
    assert executed_steps(sim.engine) == 4


@pytest.mark.parametrize(
    "protocol,overrides,steps,delivered",
    [
        # TP: the first hop (``inject`` arms the launch attention set);
        # the other seven hops, the first ejection, every streaming
        # cycle, the source running dry and the tail ejecting are
        # jumped.
        ("tp", {}, 1, 40),
        # An in-band (DP) header is a data flit: its eight hops are
        # stepped.
        ("dp", {}, 8, 40),
        # MB-m: the first probe hop; the other seven, the path
        # acknowledgment's walk back and the front filling the path
        # are jumped (t_PCS = 3l + L - 1).
        ("mb", {}, 1, 55),
        # The tail acknowledgment's walk back is stepped, one per hop.
        ("tp", {"recovery": RecoveryConfig(tail_ack=True)}, 1 + 8, 40),
    ],
    ids=["tp", "dp", "mb", "tp-tail-ack"],
)
def test_lone_message_executed_steps(protocol, overrides, steps, delivered):
    """A lone 32-flit message over 8 hops of an idle 16-ary 2-cube:
    40 of 200 cycles executed when only the empty network is jumped."""
    engine = NetworkSimulator(
        lone_message_cfg(protocol=protocol, **overrides)
    ).engine
    engine.inject(0, 4 + 16 * 4)
    engine.run(200)
    assert engine.records[0].delivered == delivered
    assert executed_steps(engine) == steps


@pytest.mark.parametrize("protocol,steps", [("tp", 1), ("dp", 8), ("mb", 1)])
def test_drain_takes_the_jump(protocol, steps):
    """``drain`` jumps what ``run`` jumps and stops on the cycle the
    network empties: a lone message drained executes the steps ``run``
    would, and ends in the reference engine's state."""
    from tests.sim.test_reference_lockstep import _engine_state

    engines = [
        sim(lone_message_cfg(protocol=protocol)).engine
        for sim in (NetworkSimulator, ReferenceSimulator)
    ]
    for engine in engines:
        engine.inject(0, 4 + 16 * 4)
        assert engine.drain(200)
    production, reference = engines
    assert production.cycle == reference.cycle
    assert _engine_state(production) == _engine_state(reference)
    assert executed_steps(production) == steps


@pytest.mark.parametrize(
    "traffic,params",
    [m[1:] for m in TRAFFIC_MATRIX],
    ids=[m[0] for m in TRAFFIC_MATRIX],
)
def test_traffic_patterns_exercise_skip_path(traffic, params):
    """Each catalog pattern's pinned config must genuinely fast-forward
    (otherwise its reference comparison proves nothing)."""
    sim = NetworkSimulator(_traffic_cfg(traffic, params))
    result = sim.run()
    assert result.delivered > 0
    assert sim.engine.fast_forwarded_cycles > 0


def _loaded_cfg():
    # Congested enough that headers park and pipelines go quiet.
    return _protocol_cfg("tp", {"k_unsafe": 0}).with_(offered_load=0.25)


def test_event_engine_actually_parks_and_attends():
    """A loaded run must exercise every ready-set layer — otherwise the
    reference comparison proves nothing about the skip paths."""
    cfg = _loaded_cfg()
    sim = NetworkSimulator(cfg)
    engine = sim.engine
    saw_parked = False
    seen_attn = []
    # The launch phase consumes the attention set, so sample it on
    # entry (after the earlier phases added terminal/ejected sources).
    orig_traffic = engine._phase_traffic

    def spy_traffic():
        if engine._launch_attn:
            seen_attn.append(engine.cycle)
        orig_traffic()

    engine._phase_traffic = spy_traffic
    for _ in range(cfg.total_cycles):
        engine.step()
        saw_parked = saw_parked or any(
            m.parked for m in engine.pending.values()
        )
    saw_attn = bool(seen_attn)
    assert saw_parked, "no routing header ever parked"
    assert saw_attn, "the launch attention set never armed"


def test_reference_skips_nothing():
    """On the same loaded config the reference never fast-forwards and
    re-decides the headers production parks, to the same result —
    otherwise comparing against it could be vacuous."""
    production = NetworkSimulator(_loaded_cfg())
    reference = ReferenceSimulator(_loaded_cfg())
    assert_identical(production.run(), reference.run())
    assert reference.engine.fast_forwarded_cycles == 0
    assert (
        reference.engine.header_decisions
        > production.engine.header_decisions
    )


def _chaos_hooked_run(simulator_class):
    """One chaos-hooked simulation; returns (RunResult, controller)."""
    cfg = SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.05, message_length=8,
        warmup_cycles=100, measure_cycles=600, drain_cycles=3000,
        seed=7, watchdog_cycles=120, max_header_wait=6000,
        resilience=ResilienceConfig(audit_invariants=True, audit_every=20),
    )
    sim = simulator_class(cfg)
    engine = sim.engine
    engine.dynamic_schedule = DynamicFaultSchedule()
    controller = ChaosController(
        engine.dynamic_schedule,
        random.Random(4242),
        burst_cycles=[250, 450],
        burst_size=2,
        node_fault_fraction=0.25,
    )
    result = sim.run(on_cycle=controller)
    return result, controller


def test_chaos_hook_matches_reference():
    """The chaos hook declares its next event; skipping must not change
    which bursts fire, where, or what they hit, and the fault bursts
    (teardown, kill flits, retransmits) must hit the same victims."""
    result, ctrl = _chaos_hooked_run(NetworkSimulator)
    ref_result, ref_ctrl = _chaos_hooked_run(ReferenceSimulator)
    assert ctrl.faults_injected == ref_ctrl.faults_injected
    assert ctrl.triggers_hit == ref_ctrl.triggers_hit
    assert ctrl.faults_injected > 0, (
        "scenario must actually inject chaos faults"
    )
    assert_identical(result, ref_result)


@pytest.mark.parametrize(
    "cfg", [_low_load_idle_cfg(), _reconfig_idle_cfg()],
    ids=["engine", "hook-chain"],
)
def test_undeclared_hook_is_rejected(cfg):
    """A hook without next_event_cycle is a TypeError before any cycle
    runs, alone or chained before the reconfiguration controller."""
    sim = NetworkSimulator(cfg)
    seen = []
    with pytest.raises(TypeError, match="next_event_cycle"):
        sim.run(on_cycle=lambda engine: seen.append(engine.cycle))
    assert sim.engine.cycle == 0 and not seen


def test_declared_hooks_run_without_fallback_warning():
    """Hooks that declare the contract — a HookChain of them included —
    keep fast-forward and raise no warning."""
    sim = NetworkSimulator(_reconfig_idle_cfg())  # chains the controller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim.run(on_cycle=DeclaredHook())
    assert sim.engine.fast_forwarded_cycles > 0


def _assert_parallel_matches_serial_reference(configs):
    parallel = run_configs(configs, jobs=2)
    serial = [ReferenceSimulator(cfg).run() for cfg in configs]
    for a, b in zip(parallel, serial):
        assert_identical(a, b)
    return parallel


def test_parallel_run_configs_composition():
    """parallel.run_configs composes with the production engine: a
    parallel campaign equals a serial in-process reference one."""
    base = SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=100, measure_cycles=500, drain_cycles=1500,
    )
    _assert_parallel_matches_serial_reference(
        [base.with_(seed=s) for s in (1, 2, 3)]
    )


def test_parallel_run_configs_reconfig_composition():
    """The hardest composition: reconfiguration drain/commit epochs,
    dynamic faults and audit ticks — workers rebuild the controller
    from the config and must replay the sequence exactly."""
    base = _reconfig_cfg()
    results = _assert_parallel_matches_serial_reference(
        [base.with_(seed=s) for s in (9, 19)]
    )
    assert any(r.reconfigurations > 0 for r in results)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: result_digest(pinned_run(name))
         for name in sorted(PINNED_CONFIGS)},
        indent=2,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH}")
