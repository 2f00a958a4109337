"""High-level simulation facade.

:class:`NetworkSimulator` wires the whole system together from a
:class:`~repro.sim.config.SimulationConfig`: topology, fault placement,
dynamic fault schedule, traffic generator, routing protocol, and the
flit-level engine — then runs warmup + measurement (+ drain) and
returns a :class:`~repro.sim.stats.RunResult`.

>>> from repro import NetworkSimulator, SimulationConfig
>>> cfg = SimulationConfig(k=4, n=2, protocol="tp", offered_load=0.05,
...                        warmup_cycles=200, measure_cycles=800)
>>> result = NetworkSimulator(cfg).run()
>>> result.delivered > 0
True
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Tuple

from repro.core.two_phase import TwoPhaseProtocol
from repro.faults.injection import (
    DynamicFaultSchedule,
    place_random_node_faults,
    random_dynamic_schedule,
)
from repro.faults.model import FaultState
from repro.network.topology import cube
from repro.reconfig.controller import ReconfigController
from repro.routing.duato import DuatoProtocol
from repro.routing.mb import MBmProtocol
from repro.routing.oblivious import DimensionOrderProtocol
from repro.sim.config import SimulationConfig
from repro.sim.engine import Engine, HookChain
from repro.sim.message import Message
from repro.sim.stats import RunResult, summarize
from repro.sim.traffic import TrafficGenerator

PROTOCOLS = {
    "dp": DuatoProtocol,
    "mb": MBmProtocol,
    "tp": TwoPhaseProtocol,
    "det": DimensionOrderProtocol,
}


def make_protocol(name: str, **params):
    """Instantiate a routing protocol by its short name.

    ``dp`` — Duato's Protocol (wormhole baseline); ``mb`` — MB-m over
    PCS; ``tp`` — Two-Phase (``k_unsafe=0`` aggressive by default,
    ``k_unsafe=3`` conservative); ``det`` — dimension-order with
    selectable flow control (validation).
    """
    try:
        cls = PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}"
        ) from None
    return cls(**params)


def idle_engine(protocol: str, protocol_params: Optional[dict] = None, *,
                fault_state: Optional[FaultState] = None,
                dynamic_schedule: Optional[DynamicFaultSchedule] = None,
                **config) -> Engine:
    """An engine that generates no traffic, for hand-injected messages.

    Offered load 0 and no warm-up or measurement window unless
    ``config`` — any other :class:`SimulationConfig` fields (``k``,
    ``n``, ``message_length``, ``seed``, ``recovery``, …) — says
    otherwise.  A ``fault_state`` brings its own topology.
    """
    params = dict(protocol_params or {})
    cfg = SimulationConfig(
        protocol=protocol, protocol_params=params, offered_load=0.0,
        warmup_cycles=0, measure_cycles=0,
    ).with_(**config)
    return Engine(
        cfg, make_protocol(protocol, **params),
        topology=None if fault_state is None else fault_state.topology,
        fault_state=fault_state, dynamic_schedule=dynamic_schedule,
    )


def probe(engine: Engine, routes: Iterable[Tuple[int, int]], length: int,
          max_cycles: int) -> List[Message]:
    """Inject a ``length``-flit message on every ``(src, dst)`` route at
    once, then step until all of them are terminal or ``max_cycles``
    cycles have passed; returns the messages in route order.

    The one measurement behind every idle-network table: the Section
    2.2 formula table, the Theorem 1 alleys and the validation
    battery's nearest-neighbour pattern.
    """
    messages = [engine.inject(src, dst, length=length) for src, dst in routes]
    for _ in range(max_cycles):
        engine.step()
        if all(m.is_terminal() for m in messages):
            break
    return messages


class NetworkSimulator:
    """Build and run one complete simulation from a config."""

    #: The engine built by the constructor.  A class attribute so the
    #: test suite's reference engine can stand in by subclassing.
    engine_class = Engine

    def __init__(self, config: SimulationConfig,
                 protocol=None, rng: Optional[random.Random] = None):
        if config.measure_cycles < 1:
            raise ValueError(
                "measure_cycles must be >= 1: a NetworkSimulator run is "
                "summarized over its measurement window"
            )
        self.config = config
        self.rng = rng if rng is not None else random.Random(config.seed)
        self.topology = cube(config.k, config.n)
        self.faults = FaultState(self.topology)
        self.protocol = protocol if protocol is not None else make_protocol(
            config.protocol, **config.protocol_params
        )

        if config.faults.static_node_faults:
            place_random_node_faults(
                self.faults, config.faults.static_node_faults, self.rng,
            )

        healthy = [
            node for node in range(self.topology.num_nodes)
            if not self.faults.is_node_faulty(node)
        ]
        self.traffic = TrafficGenerator(
            config.traffic, self.topology, self.rng, healthy_nodes=healthy,
            params=config.traffic_params,
        )

        schedule: Optional[DynamicFaultSchedule] = None
        if config.faults.dynamic_faults:
            schedule = random_dynamic_schedule(
                self.topology,
                config.faults.dynamic_faults,
                horizon=config.total_cycles,
                rng=self.rng,
                start_cycle=config.faults.dynamic_start,
            )

        self.engine = self.engine_class(
            config,
            self.protocol,
            topology=self.topology,
            fault_state=self.faults,
            traffic=self.traffic,
            rng=self.rng,
            dynamic_schedule=schedule,
        )

        #: Online reconfiguration controller (DESIGN.md §10), armed by
        #: ``resilience.reconfig`` and composed after any user hook.
        self.reconfig: Optional[ReconfigController] = (
            ReconfigController(config.resilience)
            if config.resilience.reconfig else None
        )

    def run(self, on_cycle=None) -> RunResult:
        """Warmup + measurement, then drain, then summarize.

        ``on_cycle(engine)``, when given, is invoked after every
        executed cycle of the warmup+measurement phase (not the
        drain).  The chaos harness uses it to watch live state and
        inject fault bursts at adversarial moments; tracing and custom
        instrumentation fit the same hook.  A hook that declares
        ``next_event_cycle(engine)`` keeps the empty-network case of
        the steady-state fast-forward (the one state its declaration
        covers: skipped cycles are provably no-ops for it; stretches
        with worms in flight are stepped); any other hook falls back to
        cycle-by-cycle execution — see
        :meth:`repro.sim.engine.Engine.run`.

        With ``resilience.reconfig`` the
        :class:`~repro.reconfig.ReconfigController` runs as an
        additional hook after the caller's (both declare their event
        horizons, so fast-forward survives the composition); a
        reconfiguration still draining at the end of measurement is
        cancelled before the engine drain so the freeze cannot leak
        into it.
        """
        hook = on_cycle
        if self.reconfig is not None:
            hook = (
                HookChain([on_cycle, self.reconfig])
                if on_cycle is not None else self.reconfig
            )
        self.engine.run(self.config.total_cycles, on_cycle=hook)
        if self.reconfig is not None:
            self.reconfig.finalize(self.engine)
        if self.config.drain_cycles:
            self.engine.drain(self.config.drain_cycles)
        return self.results()

    def results(self) -> RunResult:
        return summarize(self.engine, self.config.warmup_cycles)


def run_config(config: SimulationConfig) -> RunResult:
    """One-shot convenience: build, run, summarize."""
    return NetworkSimulator(config).run()
