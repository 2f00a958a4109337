"""Simulator validation with deterministic communication patterns.

The paper notes its simulation model "was validated using deterministic
communication patterns" (Section 6.0, following Ferrari [14]): under a
workload whose behaviour is analytically predictable, the simulator's
measurements must match the prediction.  This module implements that
methodology for the reproduction:

* **nearest-neighbor**: every node sends to its +x neighbor.  All
  paths are link-disjoint (each message uses only its own +x channel),
  so there is no contention and every message's latency must equal the
  idle-network formula for the protocol's flow control; sustainable
  throughput equals the offered load up to the channel capacity.
* **fixed-distance ring**: every node sends ``d`` hops along +x.  The
  per-channel utilization is exactly ``load * d`` — measured link
  utilization must match.

:func:`validate` runs the full battery and returns a report; the test
suite asserts every check passes, giving the same evidence the paper's
validation produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.latency_model import t_pcs, t_wormhole
from repro.sim.simulator import idle_engine, probe


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    expected: float
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        if self.tolerance == 0:
            return self.expected == self.measured
        return abs(self.measured - self.expected) <= self.tolerance * max(
            abs(self.expected), 1e-12
        )


def nearest_neighbor_latency(flow: str, k: int = 8,
                             length: int = 8) -> List[ValidationCheck]:
    """Simultaneous nearest-neighbor messages: zero contention.

    Every node injects one message to its +x neighbor at the same
    cycle; paths are disjoint, so each must finish in exactly the
    idle-network time.
    """
    engine = idle_engine("det", {"flow": flow}, k=k, message_length=length)
    topo = engine.topology
    messages = probe(
        engine,
        [(node, topo.neighbor(node, 0, +1)) for node in range(topo.num_nodes)],
        length, 10 * (length + 10),
    )
    # SR's default K = 3 exceeds the one link, so SR degenerates to PCS.
    expected = t_wormhole(1, length) if flow == "wr" else t_pcs(1, length)
    checks = []
    latencies = {
        m.delivered_cycle - m.created_cycle
        for m in messages
        if m.delivered_cycle is not None
    }
    checks.append(
        ValidationCheck(
            name=f"nearest-neighbor {flow}: all delivered",
            expected=len(messages),
            measured=sum(1 for m in messages if m.status.name == "DELIVERED"),
            tolerance=0,
        )
    )
    checks.append(
        ValidationCheck(
            name=f"nearest-neighbor {flow}: uniform latency {expected}",
            expected=1,
            measured=int(latencies == {expected}),
            tolerance=0,
        )
    )
    return checks


def ring_utilization(distance: int = 3, k: int = 8, length: int = 4,
                     interval: int = 40) -> List[ValidationCheck]:
    """Fixed-distance +x traffic: channel utilization = load * distance.

    Each node injects a ``length``-flit message every ``interval``
    cycles to the node ``distance`` hops along +x for ``rounds``
    rounds.  Every +x channel then carries exactly
    ``length * distance / interval`` flits/cycle.
    """
    engine = idle_engine("det", {"flow": "wr"}, k=k, message_length=length)
    topo = engine.topology
    rounds = 5
    injected = 0
    cycles = rounds * interval
    for cycle in range(cycles):
        if cycle % interval == 0 and cycle // interval < rounds:
            for node in range(topo.num_nodes):
                coords = topo.coords(node)
                dst = topo.node_id((coords[0] + distance,) + coords[1:])
                engine.inject(node, dst, length=length)
                injected += 1
        engine.step()
    engine.drain(5000)
    # Expected flit crossings per +x channel: every message crosses
    # `distance` consecutive +x links; by ring symmetry each channel
    # carries `rounds * distance` messages' worth... each +x channel is
    # crossed by exactly `distance` sources per round.
    expected_per_channel = rounds * distance * (length + 1)  # +1 header
    measured = []
    for node in range(topo.num_nodes):
        ch = topo.channel_id(node, 0, +1)
        measured.append(
            sum(vc.grants for vc in engine.channels.vcs(ch))
        )
    checks = [
        ValidationCheck(
            name="ring: all messages delivered",
            expected=injected,
            measured=sum(r.status == "DELIVERED" for r in engine.records),
            tolerance=0,
        ),
        ValidationCheck(
            name=(
                f"ring: per-channel flit crossings == "
                f"{expected_per_channel}"
            ),
            expected=1,
            measured=int(
                all(m == expected_per_channel for m in measured)
            ),
            tolerance=0,
        ),
    ]
    return checks


def validate() -> List[ValidationCheck]:
    """The full deterministic-pattern validation battery."""
    checks: List[ValidationCheck] = []
    for flow in ("wr", "sr", "pcs"):
        checks.extend(nearest_neighbor_latency(flow))
    checks.extend(ring_utilization())
    return checks


def render(checks: List[ValidationCheck]) -> str:
    lines = ["=== deterministic-pattern validation (Section 6.0) ==="]
    for c in checks:
        status = "ok" if c.passed else "FAIL"
        lines.append(
            f"  [{status:>4}] {c.name}: expected {c.expected}, "
            f"measured {c.measured}"
        )
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks)} checks, {failed} failures")
    return "\n".join(lines)

