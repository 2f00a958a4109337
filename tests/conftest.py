"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.faults.model import FaultState
from repro.network.channel import ChannelBank
from repro.network.topology import KAryNCube
from repro.routing.base import RoutingContext
from repro.sim.engine import Engine
from repro.sim.simulator import idle_engine

try:
    from hypothesis import settings

    # CI profile: no wall-clock deadline (simulation-heavy examples)
    # and derandomized example selection so CI runs are reproducible.
    settings.register_profile("ci", deadline=None, derandomize=True)
    settings.load_profile("ci")
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pass


@pytest.fixture
def torus4() -> KAryNCube:
    return KAryNCube(4, 2)


@pytest.fixture
def torus8() -> KAryNCube:
    return KAryNCube(8, 2)


@pytest.fixture
def torus3d() -> KAryNCube:
    return KAryNCube(4, 3)


def make_context(topology: KAryNCube,
                 faults: FaultState = None) -> RoutingContext:
    """A routing context over a fresh channel bank."""
    if faults is None:
        faults = FaultState(topology)
    bank = ChannelBank(topology.num_channels)
    return RoutingContext(topology, faults, bank, cycle=1)


def build_engine(protocol_name: str, k: int = 8, n: int = 2, seed: int = 1,
                 faults: FaultState = None, message_length: int = 8,
                 protocol_params: dict = None,
                 **config_overrides) -> Engine:
    """An idle engine (no traffic) for hand-injected messages."""
    if faults is not None:
        assert faults.topology.num_nodes == k**n
    return idle_engine(
        protocol_name, protocol_params, fault_state=faults, k=k, n=n,
        seed=seed, message_length=message_length, **config_overrides,
    )


def run_to_completion(engine: Engine, msg, max_cycles: int = 5000):
    """Step the engine until one message terminates."""
    for _ in range(max_cycles):
        engine.step()
        if msg.is_terminal():
            return msg
    raise AssertionError(
        f"message did not terminate within {max_cycles} cycles: {msg!r}"
    )


def delivered_count(engine: Engine) -> int:
    """Messages the engine delivered (a delivered record is never
    superseded by a retry)."""
    return sum(r.status == "DELIVERED" for r in engine.records)


def drain_engine(engine: Engine, max_cycles: int = 20_000) -> None:
    """Run until every message is terminal; assert full drain."""
    assert engine.drain(max_cycles), (
        f"network failed to drain: {len(engine.active)} active"
    )
