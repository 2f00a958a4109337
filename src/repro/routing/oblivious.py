"""Deterministic dimension-order protocol with selectable flow control.

This protocol exists to validate the simulator against the closed-form
latency expressions of Section 2.2 and to exercise each flow-control
mechanism in isolation: it always follows the dimension-order path on
the deterministic (dateline-classed) virtual channels, blocking when
the channel is busy, and can be configured as

* ``flow="wr"``  — in-band header, wormhole (validates ``t_WR``);
* ``flow="sr"``  — decoupled header, scouting distance ``k`` from the
  first hop (validates ``t_scouting``);
* ``flow="pcs"`` — decoupled header, data gated on the path
  acknowledgment (validates ``t_PCS``).

It performs no misrouting or backtracking: a faulty channel on the
dimension-order path makes the message undeliverable.

With ``dateline=False`` the dateline classing is deliberately
disabled (every hop uses class 0), reproducing naive wormhole routing
on a torus — the textbook configuration whose ring wrap-around closes
a cyclic channel dependency and genuinely deadlocks under load.  The
resilience layer's chaos harness uses it to exercise the watchdog's
wait-for-graph diagnosis and victim-ejection recovery against *real*
cyclic deadlocks rather than simulated stalls.
"""

from __future__ import annotations

from repro.core.flow_control import FlowControlConfig
from repro.network.channel import VCClass, VCState
from repro.routing.base import WAIT, Action, Decision, RoutingContext
from repro.sim.message import Message


class DimensionOrderProtocol:
    """E-cube routing over the escape channels, any flow control."""

    name = "det"

    def __init__(self, flow: str = "wr", k: int = 3, dateline: bool = True):
        self.dateline = dateline
        if flow == "wr":
            self.flow_control = FlowControlConfig.wormhole()
            self.inline_header = True
        elif flow == "sr":
            self.flow_control = FlowControlConfig.scouting(
                k_safe=k, k_unsafe=k
            )
            self.inline_header = False
        elif flow == "pcs":
            self.flow_control = FlowControlConfig.pcs()
            self.inline_header = False
        else:
            raise ValueError(
                f"flow must be 'wr', 'sr', or 'pcs', got {flow!r}"
            )
        #: K programmed on every hop (under SR ``k_safe == k_unsafe``,
        #: so the header's SR bit plays no part).
        self._k = self.flow_control.k_for(False)

    def decide(self, ctx: RoutingContext, message: Message) -> Decision:
        node = message.path_nodes[message.header_router]
        det = ctx.cache.escape(node, message.dst)
        assert det is not None, "decide() must not be called at destination"
        ch = det[2]
        vclass = det[4]
        if not self.dateline:
            vclass = VCClass.DETERMINISTIC_0  # naive: cycle NOT broken
        if ctx.faults.channel_faulty[ch]:
            return Decision(
                action=Action.ABORT,
                reason="faulty channel on dimension-order path",
            )
        vc = ctx.channels.deterministic(ch, vclass)
        if vc.state is VCState.FREE:
            return Decision(Action.RESERVE, vc, det, self._k)
        return WAIT
