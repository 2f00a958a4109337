"""High-level simulation facade.

:class:`NetworkSimulator` builds one run from a
:class:`~repro.sim.config.SimulationConfig` alone: it places the static
faults and draws the dynamic fault schedule, and the flit-level
:class:`~repro.sim.engine.Engine` builds the protocol and the traffic
generator from the config and that fault state — then it runs warmup +
measurement (+ drain) and returns a :class:`~repro.sim.stats.RunResult`.

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

from repro.faults.injection import (
    DynamicFaultSchedule,
    place_random_node_faults,
    random_dynamic_schedule,
)
from repro.faults.model import FaultState
from repro.network.topology import cube
from repro.reconfig.controller import ReconfigController
from repro.sim.config import SimulationConfig
# The protocol registry lives with the engine that reads it; both
# names stay importable from here.
from repro.sim.engine import PROTOCOLS, Engine, HookChain, make_protocol
from repro.sim.message import Message
from repro.sim.stats import RunResult, summarize


def idle_engine(protocol: str, protocol_params: Optional[dict] = None, *,
                fault_state: Optional[FaultState] = None,
                dynamic_schedule: Optional[DynamicFaultSchedule] = None,
                **config) -> Engine:
    """An engine that generates no traffic, for hand-injected messages.

    Offered load 0 and no warm-up or measurement window unless
    ``config`` — any other :class:`SimulationConfig` fields (``k``,
    ``n``, ``message_length``, ``seed``, ``recovery``, …) — says
    otherwise; a ``fault_state`` must be of the config's ``k`` and
    ``n``.
    """
    cfg = SimulationConfig(
        protocol=protocol, protocol_params=dict(protocol_params or {}),
        offered_load=0.0, warmup_cycles=0, measure_cycles=0,
    ).with_(**config)
    return Engine(cfg, fault_state, dynamic_schedule)


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
    """Build and run one complete simulation from ``config`` alone, with
    one ``random.Random(config.seed)`` for faults and traffic."""

    #: The engine built by the constructor.  A class attribute so the
    #: test suite's reference engine can stand in by subclassing.
    engine_class = Engine

    def __init__(self, config: SimulationConfig):
        if config.measure_cycles < 1:
            raise ValueError(
                "measure_cycles must be >= 1: a NetworkSimulator run is "
                "summarized over its measurement window"
            )
        self.config = config
        rng = random.Random(config.seed)
        topology = cube(config.k, config.n)
        faults = FaultState(topology)
        if config.faults.static_node_faults:
            place_random_node_faults(
                faults, config.faults.static_node_faults, rng,
            )
        schedule: Optional[DynamicFaultSchedule] = None
        if config.faults.dynamic_faults:
            schedule = random_dynamic_schedule(
                topology,
                config.faults.dynamic_faults,
                horizon=config.total_cycles,
                rng=rng,
                start_cycle=config.faults.dynamic_start,
            )
        self.engine = self.engine_class(config, faults, schedule, rng)

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
        instrumentation fit the same hook.  The hook declares
        ``next_event_cycle(engine)``, the first cycle at which calling
        it can act whatever the network holds, and the fast-forward
        jumps no further than the cycle before it; a hook without one
        is a ``TypeError`` — see :meth:`repro.sim.engine.Engine.run`.

        With ``resilience.reconfig`` the
        :class:`~repro.reconfig.ReconfigController` runs as an
        additional hook after the caller's (the chain's next event is
        the earlier of the two); a
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
