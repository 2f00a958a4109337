"""Flit-level simulation: messages, traffic, statistics, configuration.

The engine and the :class:`~repro.sim.simulator.NetworkSimulator`
facade are intentionally *not* re-exported here — they depend on the
routing protocols, which in turn depend on :mod:`repro.sim.message`,
and re-exporting them from this package ``__init__`` would create an
import cycle.  Import them from the top-level :mod:`repro` package or
from their concrete modules.
"""

from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.sim.invariants import (
    InvariantAuditor,
    InvariantError,
    InvariantViolation,
)
from repro.sim.message import ControlKind, Message, MessageStatus
from repro.sim.parallel import replicate
from repro.sim.postmortem import DeadlockDiagnosis, WaitEdge, diagnose
from repro.sim.stats import (
    MessageRecord,
    ReplicatedResult,
    RunResult,
    mean_confidence_interval,
    summarize,
)
from repro.sim.traffic import TrafficGenerator

__all__ = [
    "ControlKind",
    "DeadlockDiagnosis",
    "FaultConfig",
    "InvariantAuditor",
    "InvariantError",
    "InvariantViolation",
    "Message",
    "MessageRecord",
    "MessageStatus",
    "RecoveryConfig",
    "ReplicatedResult",
    "ResilienceConfig",
    "RunResult",
    "SimulationConfig",
    "TrafficGenerator",
    "WaitEdge",
    "diagnose",
    "mean_confidence_interval",
    "replicate",
    "summarize",
]
