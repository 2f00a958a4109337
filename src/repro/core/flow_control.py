"""Configurable flow-control mechanisms (paper Sections 1, 2.2, 4.0).

The paper's central idea: the *scouting distance* ``K`` — how many
positive acknowledgments the first data flit must wait for before
advancing — is a per-virtual-channel, dynamically programmable
register, so one router implements a whole spectrum of flow control:

* ``K = 0`` — optimistic wormhole-like behaviour (data flits directly
  follow the header; no acknowledgments are generated);
* ``0 < K < ∞`` — scouting: a controlled header/data gap that lets the
  header backtrack up to K links to avoid faults;
* ``K = ∞`` (path-ack gating) — conservative pipelined circuit
  switching: data leaves the source only after the header has reached
  the destination and a path acknowledgment has returned.

:class:`FlowControlConfig` captures a protocol's choice and the
per-situation K programming used by Two-Phase routing ("the counter
values of every output channel traversed by the header are set to K"
after the probe crosses an unsafe channel).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Sentinel K meaning "gate stays closed until an explicit event"
#: (path-established acknowledgment for PCS; detour-resume token for
#: channels reserved while a Two-Phase probe is in detour mode).
K_INFINITE = 1 << 30


class FlowControlKind(enum.Enum):
    """The three flow-control mechanisms of Figure 1."""

    WORMHOLE = "wr"
    SCOUTING = "sr"
    PCS = "pcs"


@dataclass(frozen=True)
class FlowControlConfig:
    """Flow-control programming for a routing protocol.

    Attributes
    ----------
    kind:
        Base mechanism.
    k_safe:
        Scouting distance programmed on channels crossed while the
        header's SR bit is clear (fault-free vicinity).  Two-Phase uses
        0 here — wormhole behaviour, no acknowledgment traffic.
    k_unsafe:
        Scouting distance programmed once the probe has crossed an
        unsafe channel (SR bit set).  The paper's *conservative* TP uses
        3 (Theorem 2's sufficient value for non-isolated nodes); the
        *aggressive* TP keeps 0 and relies on detour construction.
    """

    kind: FlowControlKind
    k_safe: int = 0
    k_unsafe: int = 0

    def __post_init__(self) -> None:
        for name in ("k_safe", "k_unsafe"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.kind is FlowControlKind.WORMHOLE and (
            self.k_safe or self.k_unsafe
        ):
            raise ValueError("wormhole flow control has no scouting distance")

    def k_for(self, sr_active: bool) -> int:
        """Scouting distance to program on the next reserved channel."""
        if self.kind is FlowControlKind.WORMHOLE:
            return 0
        if self.kind is FlowControlKind.PCS:
            return K_INFINITE
        return self.k_unsafe if sr_active else self.k_safe

    # Convenience constructors ----------------------------------------
    @staticmethod
    def wormhole() -> "FlowControlConfig":
        return FlowControlConfig(kind=FlowControlKind.WORMHOLE)

    @staticmethod
    def pcs() -> "FlowControlConfig":
        return FlowControlConfig(kind=FlowControlKind.PCS)

    @staticmethod
    def scouting(k_safe: int = 0, k_unsafe: int = 3) -> "FlowControlConfig":
        return FlowControlConfig(
            kind=FlowControlKind.SCOUTING, k_safe=k_safe, k_unsafe=k_unsafe
        )


def gate_open(acks_received: int, k_programmed: int, path_established: bool) -> bool:
    """Data-gate predicate for the first data flit at a router.

    The DIBU output enable of Section 5.0/Figure 11: the first data flit
    (and everything behind it) may advance when the counter of acks
    received at the router reaches the programmed scouting distance.
    ``K_INFINITE`` gates wait for the explicit path event instead, and
    the path acknowledgment opens every gate: on a path shorter than K
    the header reaches the destination before K acks exist (SR
    degenerates to PCS, Section 2.2).
    """
    return path_established or (
        k_programmed < K_INFINITE and acks_received >= k_programmed
    )


def max_header_data_gap(k: int) -> int:
    """Largest header/first-data-flit separation while advancing.

    Acknowledgments flow opposite to the header, so the gap can grow
    up to ``2K - 1`` links while the header advances (Section 2.2).
    """
    if k < 0:
        raise ValueError("scouting distance must be non-negative")
    if k == 0:
        return 0
    return 2 * k - 1
