"""The reference engine: the cycle rules with nothing skipped.

:class:`ReferenceEngine` is the oracle the production
:class:`~repro.sim.engine.Engine` is compared against, cycle by cycle
(``test_reference_lockstep.py``) and result by result
(``test_determinism.py``).  It is slow on purpose:

* :meth:`~ReferenceEngine.run` executes every cycle — no quiescence
  fast-forward;
* every pending header re-decides every cycle — no parking;
* every busy injection queue is visited every cycle — no attention set;
* the data phase is **restated from the rules** (paper Section 6.0,
  DESIGN.md §11), not inherited: no quiet flags, no reserved-VC counts,
  no inline moves, no candidate table, and contended channels are
  granted through :meth:`RoundRobinArbiter.grant_from`.

It shares with production the control plane (routing decisions' effects,
control-flit transfers, acknowledgment staging), teardown/recovery,
ejection and traffic arrival — those have one implementation.  Build a
simulation on it with :class:`ReferenceSimulator`.
"""

from repro.core.flow_control import K_INFINITE
from repro.network.channel import BUFFER_DEPTH
from repro.network.link import RoundRobinArbiter
from repro.sim.engine import Engine
from repro.sim.message import HeaderPhase, MessageStatus
from repro.sim.simulator import NetworkSimulator


class ReferenceEngine(Engine):
    """Every cycle, every header, every queue, every flit position."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._arbiters = [
            RoundRobinArbiter(self.channels.vcs_per_channel)
            for _ in range(self.topology.num_channels)
        ]

    def run(self, cycles, on_cycle=None):
        for _ in range(cycles):
            self.step()
            if on_cycle is not None:
                on_cycle(self)

    def _phase_routing_decisions(self):
        for msg in self.pending.values():
            msg.parked = False
        super()._phase_routing_decisions()

    def _phase_traffic(self):
        self._launch_attn.update(self._busy_queues)
        super()._phase_traffic()

    # ------------------------------------------------------------------
    # Phase 4, from the rules.  A flit may cross path link ``p`` — from
    # the source backlog (p == 0) or buffer p-1 into buffer p — when, on
    # start-of-cycle occupancies, there is a flit to send and a free
    # downstream slot, the link is still held and not being backtracked
    # over, the physical channel carried no control flit this cycle,
    # and, for the first data flit, the scouting gate is open.  Each
    # physical channel then carries one of its requests: a lone request
    # is granted as is, several go to the channel's round-robin arbiter.
    # Finally each node ejects one flit.
    # ------------------------------------------------------------------
    def _gate_open(self, msg, p):
        """First-data-flit gate of link ``p`` (Figure 11)."""
        if msg.held[p]:
            return False
        if msg.path_established:
            return True
        k = msg.k_at[max(p - 1, 0)]
        return k < K_INFINITE and msg.acks_at[p] >= k

    def _phase_data_movement(self, used_by_control):
        depth = BUFFER_DEPTH
        requests = {}  # channel id -> [(message, link)], first-seen order
        eject = {}     # node -> {msg_id: message}

        def wants_ejection(msg):
            if (msg.header_phase is HeaderPhase.DELIVERED
                    and msg.buffered[-1] > 0):
                eject.setdefault(msg.dst, {})[msg.msg_id] = msg

        for msg in self.active.values():
            if (msg.teardown or msg.status is not MessageStatus.ACTIVE
                    or not msg.path):
                continue
            wants_ejection(msg)
            occupancy = [msg.at_source] + msg.buffered
            first = msg.head_link + 1
            for p in range(min(first, len(msg.path) - 1) + 1):
                if (occupancy[p] == 0 or occupancy[p + 1] >= depth
                        or msg.released[p] or p == msg.backtrack_lock):
                    continue
                if p == first and not self._gate_open(msg, p):
                    continue
                ch = msg.path[p].channel_id
                if ch not in used_by_control:
                    requests.setdefault(ch, []).append((msg, p))

        for ch, asking in requests.items():
            msg, p = asking[0]
            if len(asking) > 1:
                winner = self._arbiters[ch].grant_from(
                    [m.path[q].index for m, q in asking]
                )
                msg, p = next(
                    (m, q) for m, q in asking if m.path[q].index == winner
                )
            self._move_flit(msg, p)
            if p == len(msg.path) - 1:
                wants_ejection(msg)

        for node, msgs in eject.items():
            self._eject_one(node, msgs)

    def _move_flit(self, msg, p):
        """One flit of ``msg`` crosses ``path[p]``."""
        msg.buffered[p] += 1
        msg.path[p].grants += 1
        self.data_flits_moved += 1
        self._progress = True
        if p == 0:
            msg.at_source -= 1
            if msg.injected_cycle is None:
                msg.injected_cycle = self.cycle
        else:
            msg.buffered[p - 1] -= 1
        if p == msg.head_link + 1:
            msg.head_link = p
            if self.protocol.inline_header:
                self._inline_header_arrived(msg, p + 1)
        # The flit was the tail when nothing of the message is left
        # behind it; the tail releases each link it crosses unless the
        # path is held for the tail acknowledgment.
        if msg.at_source == 0 and not any(msg.buffered[:p]):
            msg.tail_idx = p
            if not self.config.recovery.tail_ack:
                self._release_link(msg, p)


class ReferenceSimulator(NetworkSimulator):
    engine_class = ReferenceEngine
