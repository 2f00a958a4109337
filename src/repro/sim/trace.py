"""Time-space diagrams of message progress (paper Figure 1).

The paper introduces the flow-control mechanisms with time-space
diagrams: time on one axis, the links of the path on the other, showing
the routing header advancing, acknowledgments flowing backward, and the
data pipeline following.  :class:`MessageTracer` samples one message's
state every cycle and renders exactly that picture as ASCII, which
makes flow-control behaviour — the growing ``2K - 1`` scouting gap, the
PCS setup round-trip, detour stalls — directly visible:

>>> tracer = MessageTracer(engine, msg)     # doctest: +SKIP
>>> tracer.run(100)                         # doctest: +SKIP
>>> print(tracer.render())                  # doctest: +SKIP

Legend: ``H`` header position, ``B`` backtracking header, ``#`` data
flits buffered at a router, ``<`` acknowledgment in flight, ``>`` kill
flit, ``*`` destination delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional

from repro.sim.engine import Engine
from repro.sim.message import ControlKind, HeaderPhase, Message
from repro.sim.simulator import idle_engine

#: Control-token kinds drawn as backward-flowing acknowledgments.
_ACK_KINDS = (
    ControlKind.ACK_POS,
    ControlKind.ACK_NEG,
    ControlKind.PATH_ACK,
    ControlKind.RESUME,
    ControlKind.TAIL_ACK,
)
_KILL_KINDS = (ControlKind.KILL_UP, ControlKind.KILL_DOWN)


@dataclass
class TraceSample:
    """One cycle's snapshot of a traced message."""

    cycle: int
    header_router: Optional[int]
    backtracking: bool
    data_at: Dict[int, int] = field(default_factory=dict)
    at_source: int = 0
    ejected: int = 0
    ack_positions: List[int] = field(default_factory=list)
    kill_positions: List[int] = field(default_factory=list)
    path_len: int = 0
    status: str = "ACTIVE"


class MessageTracer:
    """Samples one message each cycle and renders a time-space diagram."""

    def __init__(self, engine: Engine, message: Message):
        self.engine = engine
        self.message = message
        self.samples: List[TraceSample] = []

    # ------------------------------------------------------------------
    def sample(self) -> TraceSample:
        """Record the message's current state."""
        msg = self.message
        header_router: Optional[int] = msg.header_router
        backtracking = msg.header.backtrack
        if msg.header_phase in (HeaderPhase.GONE,):
            header_router = None
        data_at = {
            i + 1: count
            for i, count in enumerate(msg.buffered)
            if count > 0
        }
        acks: List[int] = []
        kills: List[int] = []
        # Scouting acknowledgments ride their own wires under
        # ``hardware_acks``; every other token the control channels.
        engine = self.engine
        for token in chain(engine.control_out, engine.ack_out):
            if token.message is not msg:
                continue
            if token.kind in _ACK_KINDS:
                acks.append(token.position)
            elif token.kind in _KILL_KINDS:
                kills.append(token.position)
            elif token.kind is ControlKind.HEADER_BACK:
                backtracking = True
        snapshot = TraceSample(
            cycle=self.engine.cycle,
            header_router=header_router,
            backtracking=backtracking,
            data_at=data_at,
            at_source=msg.at_source,
            ejected=msg.ejected,
            ack_positions=acks,
            kill_positions=kills,
            path_len=len(msg.path),
            status=msg.status.name,
        )
        self.samples.append(snapshot)
        return snapshot

    def run(self, max_cycles: int, until_terminal: bool = True) -> None:
        """Step the engine, sampling after every cycle."""
        for _ in range(max_cycles):
            self.engine.step()
            self.sample()
            if until_terminal and self.message.is_terminal():
                break

    # ------------------------------------------------------------------
    def render(self, max_width: int = 40) -> str:
        """ASCII time-space diagram (time down, routers across)."""
        if not self.samples:
            return "(no samples)"
        width = min(
            max(max(s.path_len for s in self.samples) + 1, 2), max_width
        )
        lines = [self._header_line(width)]
        for s in self.samples:
            lines.append(self._row(s, width))
        lines.append(
            "legend: H header  B backtracking header  # data  "
            "< ack  > kill  * delivered flit"
        )
        return "\n".join(lines)

    @staticmethod
    def _header_line(width: int) -> str:
        cells = "".join(f"R{i:<3}" for i in range(width))
        return f"{'cycle':>6}  {cells}"

    def _row(self, s: TraceSample, width: int) -> str:
        cells = [" .  "] * width
        for pos, count in s.data_at.items():
            if pos < width:
                cells[pos] = f" {'#' * min(count, 2):<3}"
        if s.at_source > 0:
            cells[0] = f" {'#' * min(s.at_source, 2):<3}"
        for pos in s.ack_positions:
            if 0 <= pos < width:
                cells[pos] = " <  "
        for pos in s.kill_positions:
            if 0 <= pos < width:
                cells[pos] = " >  "
        if s.header_router is not None and s.header_router < width:
            mark = "B" if s.backtracking else "H"
            cells[s.header_router] = f" {mark}  "
        if s.ejected and s.path_len < width:
            cells[s.path_len] = f" *{min(s.ejected, 9)} "
        return f"{s.cycle:>6}  {''.join(cells)}"


def trace_single_message(protocol: str, src: int, dst: int,
                         length: int = 8, k: int = 8, n: int = 2,
                         protocol_params: Optional[dict] = None,
                         max_cycles: int = 500) -> MessageTracer:
    """Convenience: trace one message on an idle network."""
    engine = idle_engine(protocol, protocol_params, k=k, n=n,
                         message_length=length)
    msg = engine.inject(src, dst, length=length)
    tracer = MessageTracer(engine, msg)
    tracer.sample()
    tracer.run(max_cycles)
    return tracer
