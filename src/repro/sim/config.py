"""Simulation configuration (the paper's Section 6.0 parameters).

The defaults mirror the paper's evaluation setup where practical: a
torus (16-ary 2-cube in the paper), 32-flit messages with a one-flit
routing header, uniformly distributed destinations.  What no
experiment varies is a constant of the module that reads it, not a
field here: the virtual-channel layout and two-flit buffers
(:mod:`repro.network.channel`), the eight-message injection queue, the
livelock hop cap and the source retry budget (:mod:`repro.sim.engine`).
The benchmark harness scales the radix and run length down by default
so the full figure suite regenerates in laptop wall-clock time, and
restores the paper-scale parameters under ``REPRO_PAPER_SCALE=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict

from repro.sim.traffic import TRAFFIC_PARAM_KEYS


@dataclass
class FaultConfig:
    """Static and dynamic fault injection for one run."""

    #: Static node faults placed randomly before the run, never
    #: disconnecting the healthy network.
    static_node_faults: int = 0
    #: Dynamic link faults (Figure 16's scenario) injected at random
    #: cycles in ``[dynamic_start, total_cycles)``.
    dynamic_faults: int = 0
    dynamic_start: int = 0

    def __post_init__(self) -> None:
        if self.static_node_faults < 0:
            raise ValueError("static_node_faults must be >= 0")
        if self.dynamic_faults < 0:
            raise ValueError("dynamic_faults must be >= 0")


@dataclass
class RecoveryConfig:
    """Distributed recovery and reliable-delivery options (Section 2.4)."""

    #: Hold every path until the tail reaches the destination, then tear
    #: it down with a destination-to-source tail acknowledgment
    #: ("with TAck" in Figure 17).
    tail_ack: bool = False
    #: Retransmit messages interrupted by dynamic faults (only
    #: meaningful with ``tail_ack``, which keeps the source copy).
    retransmit: bool = False
    #: Maximum retransmissions per original message.
    max_retransmits: int = 2

    def __post_init__(self) -> None:
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be >= 0")


@dataclass
class ResilienceConfig:
    """Deadlock diagnosis/recovery and runtime auditing knobs.

    On watchdog expiry the engine builds the message wait-for graph
    (:mod:`repro.sim.postmortem`), then — within
    ``max_deadlock_recoveries`` — ejects a victim message through the
    kill-flit teardown path so the network resumes.  The invariant
    auditor (:mod:`repro.sim.invariants`) cross-checks flit conservation, VC
    state legality, buffer bounds, and reservation ownership every
    ``audit_every`` cycles when enabled.
    """

    #: Safety valve: give up (raise
    #: :class:`~repro.sim.engine.DeadlockError` with the rendered
    #: wait-for diagnosis) after this many victim ejections in one run —
    #: a network needing more is systemically wedged.  0 is strict mode:
    #: the first watchdog expiry raises.
    max_deadlock_recoveries: int = 256
    #: Run the runtime invariant auditor during :meth:`Engine.step`.
    audit_invariants: bool = False
    #: Audit every N cycles (1 = every cycle; audits are O(network)).
    audit_every: int = 64

    # ------------------------------------------------------------------
    # Online dynamic reconfiguration (repro.reconfig, DESIGN.md §10).
    # ------------------------------------------------------------------
    #: Arm the :class:`~repro.reconfig.ReconfigController`: when faults
    #: accumulate and recovery pressure crosses the threshold, the
    #: network is drained and a new routing-restriction epoch committed.
    reconfig: bool = False
    #: Controller monitor tick period (cycles); also its declared
    #: fast-forward event horizon.
    reconfig_check_every: int = 64
    #: Sliding window (cycles) over which recovery pressure is summed.
    reconfig_window: int = 512
    #: Pressure score (weighted recovery-event deltas) that triggers a
    #: reconfiguration once the fault epoch has moved.
    reconfig_threshold: int = 4
    #: Max cycles to wait for in-flight messages to finish during the
    #: drain phase before stragglers are forcibly ejected.
    reconfig_drain_timeout: int = 400
    #: Cycles after a commit before the controller may trigger again.
    reconfig_cooldown: int = 1024

    def __post_init__(self) -> None:
        if self.audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        if self.max_deadlock_recoveries < 0:
            raise ValueError("max_deadlock_recoveries must be >= 0")
        if self.reconfig_check_every < 1:
            raise ValueError("reconfig_check_every must be >= 1")
        if self.reconfig_window < self.reconfig_check_every:
            raise ValueError(
                "reconfig_window must be >= reconfig_check_every"
            )
        if self.reconfig_threshold < 1:
            raise ValueError("reconfig_threshold must be >= 1")
        if self.reconfig_drain_timeout < 1:
            raise ValueError("reconfig_drain_timeout must be >= 1")
        if self.reconfig_cooldown < 0:
            raise ValueError("reconfig_cooldown must be >= 0")


@dataclass
class SimulationConfig:
    """Everything needed to build and run one simulation."""

    # Topology (paper: 16-ary 2-cube).
    k: int = 8
    n: int = 2

    #: Implement positive/negative acknowledgment flits as dedicated
    #: control signals on the physical channel instead of multiplexed
    #: control-channel flits (the paper's Section 7.0 future-work
    #: proposal: "adding a few control signals to the physical channel,
    #: modifying the physical flow control accordingly (the logical
    #: behavior remains unchanged)").  Acknowledgments then stop
    #: competing with headers and data for link bandwidth.
    hardware_acks: bool = False

    # Workload (paper: 32-flit messages, 1-flit header, uniform).
    message_length: int = 32
    #: Destination-pattern name — see :mod:`repro.sim.traffic` and the
    #: workload catalog in EXPERIMENTS.md: "uniform", "hotspot",
    #: "transpose", "complement", "tornado", "nearest", "bursty".
    traffic: str = "uniform"
    #: Pattern knobs (DESIGN.md §9): ``hotspot_fraction`` /
    #: ``hotspot_count`` / ``hotspot_nodes`` for hotspot traffic;
    #: ``burst_on`` / ``burst_off`` / ``burst_off_load`` switch any
    #: pattern to on-off (MMBP) injection timing.
    traffic_params: Dict[str, Any] = field(default_factory=dict)
    #: Offered load in data flits per node per cycle (time-averaged —
    #: bursty injection concentrates it into ON windows).
    offered_load: float = 0.1

    # Protocol selection: "dp", "mb", "tp", or "det" (the validation
    # dimension-order protocol), with constructor kwargs.
    protocol: str = "tp"
    protocol_params: Dict[str, Any] = field(default_factory=dict)

    # Run control.
    warmup_cycles: int = 1000
    measure_cycles: int = 4000
    #: After measurement, keep cycling (no new traffic) until in-flight
    #: messages finish, up to this many extra cycles.
    drain_cycles: int = 4000
    seed: int = 1

    # Safety valves.
    #: Cycles without any network activity before declaring deadlock.
    watchdog_cycles: int = 2000
    #: A header blocked (WAIT) this many consecutive cycles is handed
    #: to the recovery mechanism (path torn down, retried from the
    #: source) — the paper's escape hatch for blocked/deadlocked
    #: configurations.  Far above any legitimate congestion wait.
    max_header_wait: int = 1200

    faults: FaultConfig = field(default_factory=FaultConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self) -> None:
        if self.message_length < 1:
            raise ValueError("message_length must be >= 1")
        if not 0.0 <= self.offered_load <= 1.0:
            raise ValueError("offered_load must be in [0, 1] flits/node/cycle")
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be >= 0")
        # 0 is legal here: code that drives an Engine by hand (traces,
        # the formula validation) has no measurement window.
        # NetworkSimulator, which always summarizes one, requires >= 1.
        if self.measure_cycles < 0:
            raise ValueError("measure_cycles must be >= 0")
        if self.drain_cycles < 0:
            raise ValueError("drain_cycles must be >= 0")
        if self.watchdog_cycles < 1:
            raise ValueError("watchdog_cycles must be >= 1")
        if self.max_header_wait < 1:
            raise ValueError("max_header_wait must be >= 1")
        unknown = sorted(set(self.traffic_params) - set(TRAFFIC_PARAM_KEYS))
        if unknown:
            raise ValueError(
                f"unknown traffic_params keys {unknown}; "
                f"choose from {TRAFFIC_PARAM_KEYS}"
            )

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles

    def with_(self, **overrides) -> "SimulationConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **overrides)

