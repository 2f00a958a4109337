"""repro: reproduction of "Configurable Flow Control Mechanisms for
Fault-Tolerant Routing" (Dao, Duato, Yalamanchili, ISCA 1995).

A flit-level k-ary n-cube network simulator with configurable flow
control (wormhole / scouting / pipelined circuit switching), the
Two-Phase fault-tolerant routing protocol, the DP and MB-m baselines,
static and dynamic fault models with kill-flit recovery, and the full
benchmark harness regenerating the paper's evaluation figures.
"""

from repro.core.flow_control import FlowControlConfig, FlowControlKind
from repro.core.two_phase import TwoPhaseProtocol
from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.routing.duato import DuatoProtocol
from repro.routing.mb import MBmProtocol
from repro.faults.chaos import ChaosCampaignResult, ChaosSpec, run_campaign
from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.sim.invariants import InvariantError, InvariantViolation
from repro.sim.parallel import replicate
from repro.sim.postmortem import DeadlockError
from repro.sim.simulator import NetworkSimulator, make_protocol, run_config
from repro.sim.stats import RunResult
from repro.sim.trace import MessageTracer, trace_single_message

__version__ = "1.0.0"

__all__ = [
    "ChaosCampaignResult",
    "ChaosSpec",
    "DeadlockError",
    "DuatoProtocol",
    "FaultConfig",
    "FaultState",
    "InvariantError",
    "InvariantViolation",
    "FlowControlConfig",
    "FlowControlKind",
    "KAryNCube",
    "MBmProtocol",
    "MessageTracer",
    "NetworkSimulator",
    "RecoveryConfig",
    "ResilienceConfig",
    "RunResult",
    "SimulationConfig",
    "TwoPhaseProtocol",
    "make_protocol",
    "replicate",
    "run_campaign",
    "run_config",
    "trace_single_message",
    "__version__",
]
