"""Flit-level, time-stepped network simulation engine (Section 6.0).

Every cycle advances the network through five phases:

1. **Dynamic faults** — fault events scheduled for this cycle are
   applied; messages whose reserved path crosses a newly failed channel
   are interrupted and torn down with kill flits (Section 2.4/Fig 16).
2. **Routing decisions** — each pending routing header is presented to
   its protocol (DP / MB-m / TP / dimension-order); reservations,
   backtracks, waits, and aborts are executed.
3. **Control transfers** — each physical channel forwards at most one
   control flit from its multiplexed control queue.  A channel that
   carried a control flit cannot also carry a data flit this cycle:
   control and data share the physical bandwidth flit-by-flit (Figure
   2b), the "slightly reduced bandwidth" the paper attributes to the
   control channel.
4. **Data movement** — per physical channel, one data flit moves from
   its upstream buffer to the downstream buffer, chosen demand-driven
   round-robin among the resident virtual channels; the first data flit
   additionally passes the scouting gate (CMU counter >= programmed K,
   Figure 11) and detour holds.  Ejection (one flit per node per
   cycle over the PE link) and injection share this phase.
5. **Traffic** — message generation with the 8-message
   injection-buffer congestion control, plus launch of queued headers.
   Injection timing is the configured
   :class:`~repro.sim.traffic.InjectionProcess`'s gap sampling over the
   flat (cycle, node) trial sequence, so a cycle with no injection
   costs O(1) and a jump consumes the RNG identically (DESIGN.md §9).

Phases 1 and 3, the acknowledgment effects committed after phase 4,
and the teardown and source recovery every control token carries live
in :mod:`repro.sim.control`; this module holds the cycle, the routing
decisions, the data plane and the traffic.

Fast-forward: :meth:`Engine.run` and :meth:`Engine.drain` advance in
closed form every stretch in which no two messages interact and no
timed event falls (:mod:`repro.sim.fast_forward`): established worms
streaming alone on their channels (Section 2.2's uncontended t_WR =
l + L), the empty network while traffic runs, one header setting up
beside them (TP's K = 0 DP phase, or MB-m's probe, path acknowledgment
walk and front fill: t_PCS = 3l + L − 1), and each message's own
events — an injection arrival, its source running dry, its tail
ejecting.  An ``on_cycle`` hook bounds the
jump by the cycle its ``next_event_cycle`` declares, whatever the
network holds; a hook that declares none is a ``TypeError``.

Timing convention: a flit or token that arrives at a router at the end
of cycle *t* may move again during cycle *t+1*; a routing decision and
the resulting hop happen in the same cycle.  Under this convention an
idle-network message reproduces the Section 2.2 latency formulas
exactly (validated by the integration tests).

Scheduling: per-cycle work is proportional to *events* rather than live
messages (DESIGN.md §11).  The pending-header dict is swapped, not
copied, each cycle; the control planes hold a queue only on channels
with a flit waiting (:class:`~repro.network.link.ControlPlane`); blocked
routing headers park until a wake condition — a virtual-channel release
at their router (every release passes ``VirtualChannel.release()``,
which calls :func:`_release_funnel`'s closure over the engine's
counters — the channels never hold the engine), a fault-epoch change,
or their timed retry cycle — can change the decision's outcome; and the
launch loop visits only nodes whose injection queue was touched this
cycle.  All of this, and the jump, is behavior-preserving: the same
seed replays the exact cycle-for-cycle execution of
``tests/sim/reference_engine.py``, an engine that skips nothing and
restates the data-phase rules (``tests/sim/test_determinism.py`` and
``tests/sim/test_reference_lockstep.py`` compare the two) — which is
also what lets the parallel campaign runner guarantee serial-equivalent
results.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.core import detour as detour_rules
from repro.core.flow_control import K_INFINITE, FlowControlKind
from repro.core.two_phase import TwoPhaseProtocol
from repro.faults.injection import DynamicFaultSchedule
from repro.faults.model import FaultState
from repro.network.channel import BUFFER_DEPTH, ChannelBank
from repro.network.link import ControlPlane
from repro.network.topology import cube
from repro.routing.base import Action, RoutingContext
from repro.routing.duato import DuatoProtocol
from repro.routing.mb import MBmProtocol
from repro.routing.oblivious import DimensionOrderProtocol
from repro.sim import control, fast_forward
from repro.sim.config import SimulationConfig
from repro.sim.invariants import InvariantAuditor, InvariantError
from repro.sim.message import (
    ControlFlit,
    ControlKind,
    HeaderPhase,
    Message,
    MessageStatus,
)
from repro.sim.stats import MessageRecord
from repro.sim.traffic import TrafficGenerator, make_injection_process

#: Sentinel wake cycle for parked headers with no timed retry armed:
#: only a channel release or a fault-epoch change can wake them.
_NEVER = 1 << 62

#: Messages an injection queue holds: the paper's congestion control
#: (Section 6.0) refuses a new message at a source with this many
#: waiting.
INJECTION_QUEUE_LIMIT = 8
#: A header that exceeds ``HOP_CAP_BASE + HOP_CAP_FACTOR * distance``
#: hops is declared livelocked and aborted to recovery.
HOP_CAP_BASE = 64
HOP_CAP_FACTOR = 8

#: Routing protocols by ``SimulationConfig.protocol`` name.
PROTOCOLS = {
    "dp": DuatoProtocol,
    "mb": MBmProtocol,
    "tp": TwoPhaseProtocol,
    "det": DimensionOrderProtocol,
}


def make_protocol(name: str, **params):
    """Instantiate a routing protocol by its short name.

    ``dp`` — Duato's Protocol (wormhole baseline); ``mb`` — MB-m over
    PCS; ``tp`` — Two-Phase (``k_unsafe=0`` aggressive by default,
    ``k_unsafe=3`` conservative); ``det`` — dimension-order with
    selectable flow control (validation).
    """
    try:
        cls = PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}"
        ) from None
    return cls(**params)


def _release_funnel(rel_ver: List[int], resident: List[int],
                    ch_src: List[int]):
    """The engine's listener on every VC release.

    Bumps the release version of the channel's source node so any
    header parked there re-evaluates its routing decision next cycle.
    Releases elsewhere cannot change a WAIT: every decision only
    examines outgoing channels of the header's own router.  Also
    retires the VC from the channel's reserved count (the inline-move
    eligibility test of the data phase).  A closure over the three
    lists and not an ``Engine`` method: the virtual channels hold it,
    and nothing the engine owns may point back at the engine.
    """
    def note_release(channel_id: int) -> None:
        rel_ver[ch_src[channel_id]] += 1
        resident[channel_id] -= 1
    return note_release


def _require_horizon(hook) -> None:
    """Reject an ``on_cycle`` hook that declares no next event."""
    if getattr(hook, "next_event_cycle", None) is None:
        raise TypeError(
            f"on_cycle hook of type {type(hook).__name__} declares no "
            "next_event_cycle(engine) -> Optional[int] (the first cycle "
            "at which calling it can act, whatever the network holds; "
            "engine.cycle + 1 to see every cycle, None = never)"
        )


class HookChain:
    """Compose several ``on_cycle`` hooks into one.

    Hooks run in list order after every cycle; the chain's next event is
    the earliest of its members'.  Every member must declare one.
    """

    def __init__(self, hooks):
        self.hooks = [h for h in hooks if h is not None]
        for hook in self.hooks:
            _require_horizon(hook)

    def next_event_cycle(self, engine) -> Optional[int]:
        horizons = [
            h.next_event_cycle(engine) for h in self.hooks
        ]
        live = [h for h in horizons if h is not None]
        return min(live) if live else None

    def __call__(self, engine) -> None:
        for hook in self.hooks:
            hook(engine)


class Engine:
    """One simulation instance: network state plus the cycle loop.

    ``config`` and ``fault_state`` state the whole run: the engine
    builds its protocol from ``config.protocol`` /
    ``protocol_params`` (:func:`make_protocol`) and its
    :class:`~repro.sim.traffic.TrafficGenerator` from the config, the
    fault state (a fault-free network when omitted; given, it must be
    of the config's ``k`` and ``n``) and ``rng``
    (``random.Random(config.seed)`` when omitted).  The injection
    process draws its first gap from ``rng`` here, so a caller that
    draws a ``dynamic_schedule`` from the same stream draws it first.
    """

    def __init__(
        self,
        config: SimulationConfig,
        fault_state: Optional[FaultState] = None,
        dynamic_schedule: Optional[DynamicFaultSchedule] = None,
        rng: Optional[random.Random] = None,
    ):
        self.config = config
        self.protocol = make_protocol(
            config.protocol, **config.protocol_params
        )
        self.rng = rng if rng is not None else random.Random(config.seed)
        if fault_state is None:
            fault_state = FaultState(cube(config.k, config.n))
        topo = fault_state.topology
        if (topo.k, topo.n) != (config.k, config.n):
            raise ValueError(
                f"fault state of a {topo.k}-ary {topo.n}-cube for a "
                f"config with k={config.k}, n={config.n}"
            )
        self.faults = fault_state
        self.topology = topo
        self.channels = ChannelBank(self.topology.num_channels)
        self.traffic = TrafficGenerator(config, self.faults, self.rng)
        self.dynamic_schedule = dynamic_schedule
        # Hot-path constants, hoisted once (immutable for the engine's
        # lifetime by construction).
        self._inline_header = self.protocol.inline_header
        self._tail_ack_mode = config.recovery.tail_ack
        self._k = self.topology.k
        #: Reverse channel of every channel: the shared topology's table.
        self._reverse = self.topology.reverse_channels
        fc = self.protocol.flow_control
        #: PCS gates data on the path acknowledgment on every link.
        self._pcs = fc.kind is FlowControlKind.PCS
        #: Whether a header hop sends a positive (forward) or negative
        #: (backtrack) scouting acknowledgment, by the header's SR bit:
        #: only scouting flow control with a nonzero K acknowledges.
        self._acks_by_sr = tuple(
            fc.kind is FlowControlKind.SCOUTING and fc.k_for(sr) > 0
            for sr in (False, True)
        )
        #: The protocol's pure set-up verdict (TP's DP step 1, MB-m's
        #: first choice), through which ``run()``'s jump advances a
        #: decoupled header's set-up (:mod:`repro.sim.fast_forward`);
        #: ``None`` — never jumped — for in-band headers and for
        #: protocols without one.
        self._setup_hop = (
            None if self._inline_header
            else getattr(self.protocol, "setup_hop", None)
        )

        num_ch = self.topology.num_channels
        #: Control flits queued per physical channel; a channel costs
        #: something only while one waits on it.
        self.control_out: ControlPlane = ControlPlane()
        #: Dedicated acknowledgment wires (Section 7.0 future work):
        #: only used when ``config.hardware_acks`` — one ack per channel
        #: per cycle, not competing with the flit slot.
        self.ack_out: ControlPlane = ControlPlane()
        #: Where scouting acknowledgments queue: their own wires under
        #: ``hardware_acks``, else the shared control channels.
        self._ack_plane = (
            self.ack_out if config.hardware_acks else self.control_out
        )
        #: Round-robin pointer per physical channel: the VC index with
        #: the highest priority at the next contended grant.
        self._rr_next: List[int] = [0] * num_ch

        self.cycle = 0
        self.ctx = RoutingContext(self.topology, self.faults, self.channels, 0)

        self.active: Dict[int, Message] = {}
        self.pending: Dict[int, Message] = {}
        #: Per-node injection FIFOs, head first; plain lists — at most
        #: ``INJECTION_QUEUE_LIMIT`` long, and an empty one costs 56 B.
        self.queues: List[List[Message]] = [
            [] for _ in range(self.topology.num_nodes)
        ]
        self._next_msg_id = 0
        #: Per-node id of the message most recently granted ejection
        #: (round-robin fairness on the PE link).
        self._eject_last: List[int] = [-1] * self.topology.num_nodes

        # Counters.
        self.offered_messages = 0
        self.accepted_messages = 0
        self.rejected_messages = 0
        self.retransmissions = 0
        self.source_retries = 0
        self.killed_flits = 0
        self.control_flits_sent = 0
        self.data_flits_moved = 0
        #: Data flits handed to a PE over an ejection port.
        self.flits_ejected = 0
        #: Always 0.  ``benchmarks/perf`` (frozen by ``BENCHMARK.json``)
        #: still reads this counter of the removed SoA kernel
        #: (PERF_HISTORY.md); only the next ``benchmark`` PR can drop
        #: it, together with the ``kernel.cycles`` /
        #: ``kernel.cycle_share`` metrics.
        self.kernel_cycles = 0
        #: Routing-protocol ``decide`` invocations (header decisions).
        self.header_decisions = 0
        #: Header hops the set-up jump applied in closed form, each one
        #: protocol ``setup_hop`` verdict instead of a ``decide`` call
        #: (:mod:`repro.sim.fast_forward`); with ``header_decisions``,
        #: every routing decision a run made.
        self.setup_hops = 0
        #: Data flits delivered during the measurement window.
        self.measured_delivered_flits = 0
        self.measured_offered_flits = 0
        self.measured_accepted_flits = 0
        self.records: List[MessageRecord] = []
        self.drop_reasons: Dict[str, int] = {}
        #: Per-reason teardown counts ("fault" / "abort" / "deadlock").
        self.teardown_counts: Dict[str, int] = {}
        #: Watchdog expiries resolved by victim ejection.
        self.deadlock_recoveries = 0
        #: Message ids ejected by deadlock recovery, in order.
        self.deadlock_victims: List[int] = []
        #: Deadlock-recovery ejections per original message id — the
        #: re-ejection cap (``postmortem.MAX_VICTIM_EJECTIONS``) counts
        #: a message and all its retry clones as one origin.
        self._ejections_by_origin: Dict[int, int] = {}
        #: Victim selections where at least one candidate was excluded
        #: by the re-ejection cap (surfaced on RunResult).
        self.victim_cap_hits = 0
        #: Online reconfiguration (repro.reconfig): while True, headers
        #: with no reservations yet are held at their source — no new
        #: path construction begins during the drain/transition window.
        self.routing_freeze = False
        #: Committed reconfigurations and their cumulative downtime.
        self.reconfigurations = 0
        self.reconfig_downtime_cycles = 0
        #: Message ids forcibly ejected at a reconfiguration drain
        #: timeout, in ejection order.
        self.reconfig_victims: List[int] = []
        #: Cycle of the most recent recovery action (any teardown or a
        #: reconfiguration commit) — the storm benchmark's
        #: recovery-latency proxy; diagnostics only, not in RunResult.
        self.last_recovery_cycle = 0
        self.auditor: Optional[InvariantAuditor] = (
            InvariantAuditor()
            if config.resilience.audit_invariants else None
        )

        self.traffic_enabled = True
        self._measuring_from = config.warmup_cycles
        self._measuring_to = config.total_cycles
        self._progress = False
        self._idle_streak = 0
        #: Cycles ``step()`` did not execute: jumped by ``run()``'s
        #: fast-forward (:mod:`repro.sim.fast_forward`; diagnostics
        #: only — deliberately not part of RunResult, which must be
        #: byte-identical to a run that steps every cycle).
        self.fast_forwarded_cycles = 0
        #: Injection timing, gap-sampled (Bernoulli by default; on-off
        #: MMBP for bursty workloads — see repro.sim.traffic).  One
        #: trial slot per healthy node per cycle, cycle-major.
        self.injection = make_injection_process(config, self.rng)
        #: Gate-state updates from control flits arriving this cycle;
        #: applied after the data phase so that an acknowledgment
        #: registered at the end of cycle t opens a data gate in cycle
        #: t+1 (matching the Section 2.2 timing exactly).
        self._staged_acks: List[Tuple[Message, int, int]] = []
        self._staged_path: List[Tuple[Message, int, bool]] = []

        # ------------------------------------------------------------------
        # Event-driven core (DESIGN.md §11).  Per-cycle work tracks
        # *events* instead of live state: blocked headers park on wake
        # conditions, and the launch phase visits only nodes whose queue
        # head could have changed.  The engine that skips none of
        # this is ``tests/sim/reference_engine.py``, the equivalence
        # oracle.
        # ------------------------------------------------------------------
        #: Per-node release version: bumped whenever a virtual channel
        #: whose physical channel *originates* at the node is released.
        #: A parked header at that node re-decides when the version
        #: moves — a release of an outgoing VC is the only channel-state
        #: transition that can turn its WAIT into progress.
        self._node_rel_ver: List[int] = [0] * self.topology.num_nodes
        #: Reserved-VC count per physical channel.  A channel with
        #: exactly one reserved VC can have at most one data-movement
        #: candidate this cycle (wormhole: one message per VC), so that
        #: candidate wins arbitration unopposed — the data phase then
        #: moves the flit inline during the scan instead of routing it
        #: through the per-channel candidate table (reserve increments,
        #: the release notification decrements).
        self._ch_resident: List[int] = [0] * num_ch
        self.channels.set_release_notify(_release_funnel(
            self._node_rel_ver, self._ch_resident,
            [c.src for c in self.topology.channels],
        ))
        #: Launch-phase attention set: nodes whose injection-queue head
        #: may act this cycle (new arrival, head finished injecting,
        #: head finalized/tail-acked/requeued).  Visiting any other
        #: non-empty queue is provably a no-op, so the launch phase
        #: iterates this set instead of every non-empty queue.
        self._launch_attn: Set[int] = set()

    def in_measure_window(self) -> bool:
        return self._measuring_from < self.cycle <= self._measuring_to

    def measure_window_cycles(self) -> int:
        """Cycles of the measurement window elapsed so far."""
        return max(
            0, min(self.cycle, self._measuring_to) - self._measuring_from
        )

    # ==================================================================
    # Public API
    # ==================================================================
    def run(self, cycles: int, on_cycle=None) -> None:
        """Advance the simulation by ``cycles`` cycles.

        ``on_cycle(engine)``, when given, is invoked after every
        executed cycle.  It must have a
        ``next_event_cycle(engine) -> Optional[int]`` method, which
        promises that calling the hook before that cycle does nothing,
        whatever the network holds (``None`` = never again;
        ``engine.cycle + 1`` sees every cycle): the fast-forward jumps
        no further than the cycle before it.  A hook without one is a
        ``TypeError``, raised before any cycle runs.
        """
        hook_horizon = None
        if on_cycle is not None:
            _require_horizon(on_cycle)
            hook_horizon = on_cycle.next_event_cycle
        target = self.cycle + cycles
        while self.cycle < target:
            fast_forward.jump(self, target, hook_horizon)
            if self.cycle >= target:
                break
            self.step()
            if on_cycle is not None:
                on_cycle(self)

    def drain(self, max_cycles: int) -> bool:
        """Stop traffic and run until in-flight messages finish.

        Returns True once every message is terminal and every injection
        queue empty within the budget.  It does not wait for the
        virtual channels: a message a fault kills is terminal when the
        upstream kill reaches its source, while the downstream kill
        flit may hold a channel a few cycles longer, so
        :meth:`network_drained` can still be False.  Each step is
        preceded by the same jump as :meth:`run`'s.
        """
        self.traffic_enabled = False
        target = self.cycle + max_cycles
        while self.cycle < target:
            if not self.active and not any(self.queues):
                return True
            start = self.cycle
            fast_forward.jump(self, target)
            if self.cycle == start:
                self.step()
        return not self.active and not any(self.queues)

    def step(self) -> None:
        """Advance one cycle through the five phases."""
        self.cycle += 1
        self.ctx.cycle = self.cycle
        self._progress = False

        self._phase_dynamic_faults()
        self._phase_routing_decisions()
        used_by_control = self._phase_control_transfers()
        self._phase_data_movement(used_by_control)
        self._apply_staged_gate_updates()
        self._phase_traffic()

        if self.active and not self._progress:
            self._idle_streak += 1
            if self._idle_streak > self.config.watchdog_cycles:
                control.watchdog_expired(self)
        else:
            self._idle_streak = 0

        if self.auditor is not None and (
            self.cycle % self.config.resilience.audit_every == 0
        ):
            violations = self.auditor.audit(self)
            if violations:
                raise InvariantError(violations)

    def network_drained(self) -> bool:
        """All messages terminal and every virtual channel free."""
        return not self.active and self.channels.all_free()

    def sync_data_state(self) -> None:
        """Does nothing: the object lists are always current.

        Kept only because ``benchmarks/perf/layers.py`` (frozen by
        ``BENCHMARK.json``) binds this name as a public hook and fails
        without it; the next ``benchmark`` PR removes it together with
        the hook's timing metric.
        """

    def inject(self, src: int, dst: int,
               length: Optional[int] = None) -> Message:
        """Create and immediately launch one message (tests/examples).

        Equivalent to the message having been generated by the traffic
        phase of the current cycle: its header makes its first routing
        decision next cycle.  Both nodes must exist (failed ones are
        allowed: recovery handles them) and ``length``, when given, must
        be at least 1, as :class:`SimulationConfig` requires of
        ``message_length``.
        """
        nodes = range(self.topology.num_nodes)
        if src not in nodes or dst not in nodes:
            raise ValueError(
                f"source {src} and destination {dst} must be nodes "
                f"0..{len(nodes) - 1}"
            )
        if src == dst:
            raise ValueError("source and destination must differ")
        if length is not None and length < 1:
            raise ValueError("length must be >= 1")
        msg = self._new_message(src, dst, self.cycle, length=length)
        self.queues[src].append(msg)
        self._launch_attn.add(src)
        if self.queues[src][0] is msg:
            msg.status = MessageStatus.ACTIVE
            msg.header_phase = HeaderPhase.PENDING
            self.active[msg.msg_id] = msg
            self.pending[msg.msg_id] = msg
        return msg

    # ==================================================================
    # Phases 1 and 3 and the end-of-cycle gate updates: the control
    # plane (repro.sim.control).  Bound here, in the class body, so the
    # cycle and every per-phase hook find them on Engine.
    # ==================================================================
    _phase_dynamic_faults = control.phase_dynamic_faults
    _phase_control_transfers = control.phase_control_transfers
    _apply_staged_gate_updates = control.apply_staged_gate_updates

    # ==================================================================
    # Phase 2: routing decisions
    # ==================================================================
    def _phase_routing_decisions(self) -> None:
        if not self.pending:
            return
        max_wait = self.config.max_header_wait
        decide = self.protocol.decide
        ctx = self.ctx
        # Swap the pending set instead of copying it: decided headers
        # simply drop out, WAITing headers re-enter in place, and tokens
        # arriving in the later phases append after them — the same
        # order the per-cycle snapshot copy used to produce.
        batch = self.pending
        self.pending = {}
        pending = self.pending
        queued = MessageStatus.QUEUED
        active = MessageStatus.ACTIVE
        pending_phase = HeaderPhase.PENDING
        freeze = self.routing_freeze
        inline_header = self._inline_header
        cycle = self.cycle
        epoch = self.faults.epoch
        rel_ver = self._node_rel_ver
        for msg in batch.values():
            status = msg.status
            if msg.teardown or (status is not active and status is not queued):
                continue
            if msg.header_phase is not pending_phase:
                continue
            # Reconfiguration drain: a header that has not reserved
            # anything yet is held at its source — no new path
            # construction may begin while the restriction epoch is in
            # transition.  The hold is not a WAIT: it neither consumes
            # the header-wait budget nor counts as congestion.
            if freeze and not msg.path:
                # Held, not parked: when the freeze lifts the header
                # must decide immediately, regardless of wake state
                # (a cancelled reconfiguration bumps no epoch).
                msg.parked = False
                pending[msg.msg_id] = msg
                continue
            # Livelock valve: abort headers that wander too long (the
            # cap is constant per message, computed at creation).
            if msg.hops_taken > msg.hop_cap:
                control.abort(self, msg, "livelock hop cap exceeded")
                continue
            if msg.parked:
                # Parked header: the decision stays WAIT until a wake
                # condition can change it — a VC released at its
                # router, a fault/restriction epoch move, or its timed
                # retry coming due.  Skip the (pure) re-decision but
                # keep the wait accounting cycle-identical.
                if (
                    cycle < msg.wake_at
                    and msg.park_epoch == epoch
                    and msg.park_ver == rel_ver[msg.park_node]
                ):
                    msg.wait_cycles += 1
                    msg.consecutive_waits += 1
                    if msg.consecutive_waits > max_wait:
                        control.abort(
                            self, msg, "header blocked past wait limit"
                        )
                        continue
                    pending[msg.msg_id] = msg
                    continue
                msg.parked = False
            decision = decide(ctx, msg)
            self.header_decisions += 1
            action = decision.action
            if action is Action.WAIT:
                msg.wait_cycles += 1
                msg.consecutive_waits += 1
                if msg.consecutive_waits > max_wait:
                    # The paper's last-resort escape: a header that can
                    # no longer make progress is recovered — the path
                    # is torn down and the message retried from the
                    # source (Section 4.0).
                    control.abort(self, msg, "header blocked past wait limit")
                    continue
                # Every protocol WAIT is either a busy outgoing
                # channel (woken by a release at this node or an epoch
                # change) or a timed retry backoff (woken at
                # ``retry_wait``); spurious early wakes merely
                # re-decide WAIT and re-park.
                node = msg.path_nodes[msg.header_router]
                msg.parked = True
                msg.park_node = node
                msg.park_ver = rel_ver[node]
                msg.park_epoch = epoch
                retry = msg.retry_wait
                msg.wake_at = retry if retry > cycle else _NEVER
                pending[msg.msg_id] = msg
                continue
            msg.consecutive_waits = 0
            if action is Action.RESERVE:
                self._execute_reserve(msg, decision)
                # An in-band header is the message's first flit and
                # advances through the data phase: nothing more to do
                # until it arrives at the next router.
                if not inline_header:
                    msg.header_phase = HeaderPhase.IN_FLIGHT
                    control.push(
                        self,
                        ControlFlit(ControlKind.HEADER, msg,
                                    msg.header_router + 1, cycle),
                        decision.vc.channel_id,
                    )
            elif action is Action.BACKTRACK:
                self._execute_backtrack(msg)
            elif action is Action.ABORT:
                control.abort(self, msg, decision.reason)

    def _execute_reserve(self, msg: Message, decision) -> None:
        """Reserve the decision's VC: the path grows one link at the
        header's end.  Moving the header over it is the caller's part —
        a control flit, the in-band header's own data move, or the
        fast-forward's closed form."""
        vc = decision.vc
        # The decision's hop is the RouteCache entry the protocol chose:
        # (dim, direction, channel_id, next_node[, vclass]).
        hop = decision.hop
        dim = hop[0]
        direction = hop[1]
        vc.reserve(msg.msg_id)
        self._ch_resident[vc.channel_id] += 1
        k = K_INFINITE if self._pcs else decision.k
        hold = decision.hold
        is_misroute = decision.is_misroute
        msg.extend_path(vc, hop[3], k, hold, dim, direction, is_misroute)
        if k > 0 or hold:
            msg.needs_path_ack = True
        # Misroute / detour accounting happens at reservation time.
        if msg.header.detour:
            detour_rules.record_forward_hop(msg, dim, direction, is_misroute)
        elif is_misroute:
            msg.header.misroutes += 1
            msg.misroute_total += 1
        msg.header.apply_hop(dim, direction, self._k)
        msg.hops_taken += 1
        self._progress = True

    def _execute_backtrack(self, msg: Message) -> None:
        j = msg.header_router
        assert j > 0, "cannot backtrack from the source"
        assert not self._inline_header, "in-band headers cannot backtrack"
        msg.header.backtrack = True
        msg.header_phase = HeaderPhase.IN_FLIGHT
        msg.backtrack_count += 1
        # Lock the data gate of the link being released so the first
        # data flit cannot race onto it while the backtracking header
        # crosses the complementary channel.  A plain `held` mark is
        # not enough: an in-flight resume/path acknowledgment would
        # clear it.
        msg.backtrack_lock = j - 1
        self._progress = True
        control.send_up(self, ControlKind.HEADER_BACK, msg, j)

    # ==================================================================
    # Phase 4: data movement
    # ==================================================================
    def _phase_data_movement(self, used_by_control: Set[int]) -> None:
        depth = BUFFER_DEPTH
        # channel id -> (message, position, is_last, vc): the channel's
        # round-robin winner among the candidates seen so far.
        candidates: Dict[int, tuple] = {}
        # Channels with more than one candidate (their arbiter advances).
        contended: List[int] = []
        # node -> {msg_id: Message} ready to eject this cycle.
        eject_ready: Dict[int, Dict[int, Message]] = {}
        active_status = MessageStatus.ACTIVE
        delivered_phase = HeaderPhase.DELIVERED
        inline_header = self._inline_header
        tail_ack = self._tail_ack_mode
        cycle = self.cycle
        resident = self._ch_resident
        attn = self._launch_attn
        rr_next = self._rr_next
        num_vcs = self.channels.vcs_per_channel
        release_link = control.release_link
        moved = 0

        for msg in self.active.values():
            if msg.teardown or msg.status is not active_status:
                continue
            path = msg.path
            path_len = len(path)
            if path_len == 0:
                continue
            buffered = msg.buffered
            head_move = msg.head_link + 1
            last_link = path_len - 1
            # Ejection candidate: path complete at destination with
            # flits waiting in the final buffer.
            if (
                msg.header_phase is delivered_phase
                and buffered[last_link] > 0
            ):
                bucket = eject_ready.get(msg.dst)
                if bucket is None:
                    eject_ready[msg.dst] = {msg.msg_id: msg}
                else:
                    bucket[msg.msg_id] = msg
            released = msg.released
            backtrack_lock = msg.backtrack_lock
            # Crossing position p moves a flit from upstream of path[p]
            # (the source backlog at p == 0, else buffered[p - 1]) into
            # buffered[p].  The synchronous update rule is defined on
            # start-of-cycle occupancies, so the walk reads one slice
            # copy taken before this message's inline moves: pairwise
            # (upstream, downstream) from the tail buffer to one past
            # the head (the slice truncates at the path end).  While
            # injecting, tail_idx is 0 and the backlog is position 0's
            # upstream; afterwards the first iteration only loads the
            # tail buffer's occupancy.
            p = msg.tail_idx - 1
            down = msg.at_source
            for occupancy in buffered[p + 1:head_move + 1]:
                p += 1
                up = down
                down = occupancy
                # Nothing to send, no credit (downstream buffer full),
                # or no live link.
                if up == 0 or down >= depth or released[p]:
                    continue
                if p == backtrack_lock:
                    continue  # the header is retreating over this link
                if p == head_move:
                    # First-data-flit gate (Figure 11 DIBU enable).
                    if msg.held[p]:
                        continue
                    k_at = msg.k_at
                    k_gate = k_at[p - 1] if p > 0 else k_at[0]
                    if k_gate >= K_INFINITE:
                        if not msg.path_established:
                            continue
                    elif (
                        msg.acks_at[p] < k_gate
                        and not msg.path_established
                    ):
                        # On a path shorter than K the header reaches
                        # the destination before K acks exist; the path
                        # acknowledgment then releases the data (SR
                        # degenerates to PCS, Section 2.2).
                        continue
                vc = path[p]
                ch = vc.channel_id
                if ch in used_by_control:
                    continue
                # Inline fast path: the channel's only reserved VC is
                # this one, so the move wins arbitration unopposed (the
                # arbiter is untouched either way — single-candidate
                # grants never advance it).  Excluded: the last link
                # (its grant may insert into ``eject_ready``, whose key
                # order must match the deferred grant loop) and, for
                # in-band headers, the head advance (its arrival
                # appends to ``pending``, whose order is the next
                # cycle's decision order).  Both still resolve through
                # the candidate table below, in the slot first-seen
                # channel order gives them.
                if (
                    p != last_link
                    and resident[ch] == 1
                    and not (inline_header and p == head_move)
                ):
                    buffered[p] += 1
                    vc.grants += 1
                    moved += 1
                    if p == head_move:
                        msg.head_link = p
                    if p == 0:
                        msg.at_source -= 1
                        if msg.injected_cycle is None:
                            msg.injected_cycle = cycle
                        if msg.at_source == 0:
                            # Last flit left the source: its queue head
                            # may retire in this cycle's launch phase,
                            # and link 0 has carried the whole message.
                            attn.add(msg.src)
                            if not tail_ack:
                                release_link(msg, 0)
                    else:
                        left = buffered[p - 1] - 1
                        buffered[p - 1] = left
                        if (left == 0 and p - 1 == msg.tail_idx
                                and msg.at_source == 0):
                            # The tail flit crossed path[p].
                            msg.tail_idx = p
                            if not tail_ack:
                                release_link(msg, p)
                    continue
                # One data flit per physical channel: a second candidate
                # on a channel is arbitrated on the spot — round-robin
                # rank against the arbiter's pointer, which stays put
                # until the grant loop is done — and only the winner is
                # kept, in the slot the channel's first candidate took.
                holder = candidates.get(ch)
                if holder is not None:
                    contended.append(ch)
                    nxt = rr_next[ch]
                    if (
                        (holder[3].index - nxt) % num_vcs
                        < (vc.index - nxt) % num_vcs
                    ):
                        continue
                candidates[ch] = (msg, p, p == last_link, vc)

        # Grant one data flit per physical channel, in first-candidate
        # order.  The per-grant flit move is inlined here (it is the
        # hottest code in the simulator).
        for msg, p, is_last, vc in candidates.values():
            buffered = msg.buffered
            buffered[p] += 1
            vc.grants += 1
            moved += 1
            if p == msg.head_link + 1:
                msg.head_link = p
                if inline_header:
                    self._inline_header_arrived(msg, p + 1)
            if is_last and msg.header_phase is delivered_phase:
                bucket = eject_ready.get(msg.dst)
                if bucket is None:
                    eject_ready[msg.dst] = {msg.msg_id: msg}
                else:
                    bucket[msg.msg_id] = msg
            if p == 0:
                msg.at_source -= 1
                if msg.injected_cycle is None:
                    msg.injected_cycle = cycle
                if msg.at_source == 0:
                    attn.add(msg.src)
                    if not tail_ack:
                        release_link(msg, 0)
            else:
                left = buffered[p - 1] - 1
                buffered[p - 1] = left
                if left == 0 and p - 1 == msg.tail_idx and msg.at_source == 0:
                    msg.tail_idx = p
                    if not tail_ack:
                        release_link(msg, p)
        # A contended channel's pointer moves past its winner; a lone
        # candidate never advances it.
        for ch in contended:
            rr_next[ch] = (candidates[ch][3].index + 1) % num_vcs
        if moved:
            self.data_flits_moved += moved
            self._progress = True

        # Ejection: one flit per node per cycle over the PE link.  A
        # flit that arrived this cycle may eject this cycle (cut-through
        # ejection port), which makes idle-network latency match the
        # Section 2.2 formulas exactly.
        for node, msgs in eject_ready.items():
            self._eject_one(node, msgs)

    def _inline_header_arrived(self, msg: Message, router_idx: int) -> None:
        """In-band header flit reached a new router."""
        msg.header_router = router_idx
        if msg.path_nodes[router_idx] == msg.dst:
            msg.header_phase = HeaderPhase.DELIVERED
        else:
            msg.header_phase = HeaderPhase.PENDING
            self.pending[msg.msg_id] = msg

    def _eject_one(self, node: int, msgs: Dict[int, Message]) -> None:
        """Grant the PE link to one waiting message (round-robin by id)."""
        if len(msgs) == 1:
            # Single contender: round-robin degenerates to a grant.
            winner = next(iter(msgs.values()))
        else:
            last = self._eject_last[node]
            ids = sorted(msgs)
            winner = msgs[next((i for i in ids if i > last), ids[0])]
        self._eject_last[node] = winner.msg_id
        msg = winner
        buffered = msg.buffered
        buffered[len(msg.path) - 1] -= 1
        msg.ejected += 1
        self.flits_ejected += 1
        self._progress = True
        # Throughput counts data flits; skip the in-band header flit.
        is_header_flit = self._inline_header and msg.ejected == 1
        if not is_header_flit and (
            self._measuring_from < self.cycle <= self._measuring_to
        ):
            self.measured_delivered_flits += 1
        if msg.ejected == msg.total_flits:
            self._drained(msg)

    def _drained(self, msg: Message) -> None:
        """The tail flit left the last buffer in this cycle: deliver, or
        hold the path and send the tail acknowledgment back."""
        msg.tail_idx = len(msg.path)
        msg.delivered_cycle = self.cycle
        if self._tail_ack_mode:
            # Hold the path; tear it down with the tail ack.
            control.send_up(self, ControlKind.TAIL_ACK, msg, len(msg.path))
        else:
            msg.status = MessageStatus.DELIVERED
            self._finalize(msg)

    # ==================================================================
    # Phase 5: traffic generation and launches
    # ==================================================================
    def _phase_traffic(self) -> None:
        cfg = self.config
        if self.traffic_enabled and self.injection.enabled:
            healthy = self.faults.healthy_nodes
            num_healthy = len(healthy)
            if num_healthy:
                # The injection process lazily yields this cycle's
                # successful trial slots (usually none — the generator
                # just debits the cycle from its gap); the destination
                # draw for each arrival happens *between* two yields,
                # preserving the historical RNG interleaving exactly.
                length = cfg.message_length
                limit = INJECTION_QUEUE_LIMIT
                measuring = self.in_measure_window()
                queues = self.queues
                attn = self._launch_attn
                destination = self.traffic.destination
                cycle = self.cycle
                for pos in self.injection.arrivals(num_healthy):
                    node = healthy[pos]
                    dst = destination(node)
                    if dst is not None:
                        self.offered_messages += 1
                        if measuring:
                            self.measured_offered_flits += length
                        queue = queues[node]
                        if len(queue) >= limit:
                            self.rejected_messages += 1
                        else:
                            self.accepted_messages += 1
                            if measuring:
                                self.measured_accepted_flits += length
                            queue.append(self._new_message(node, dst, cycle))
                            attn.add(node)
            # else: no trial slots this cycle; the process is frozen.
        if self._launch_attn:
            self._launch()

    def _launch(self) -> None:
        """Launch / advance injection queues, visiting only the
        attention set — nodes whose queue head could act this cycle
        (fresh arrival, head finished injecting or tail-acked, head
        finalized or requeued); every other non-empty queue's visit is
        provably a no-op (an ACTIVE head mid-injection breaks
        immediately), so the ascending-order launch sequence matches a
        scan of every non-empty queue exactly."""
        attn = self._launch_attn
        nodes = sorted(attn)
        attn.clear()
        tail_ack = self._tail_ack_mode
        active_status = MessageStatus.ACTIVE
        queued_status = MessageStatus.QUEUED
        pending_phase = HeaderPhase.PENDING
        queues = self.queues
        for node in nodes:
            queue = queues[node]
            while queue:
                head = queue[0]
                status = head.status
                if status is active_status:
                    done_injecting = head.at_source == 0
                    released = head.tail_acked if tail_ack else True
                    if done_injecting and released and not head.teardown:
                        queue.pop(0)
                        continue
                    break
                if status is not queued_status:  # terminal
                    queue.pop(0)
                    continue
                # QUEUED head: launch its routing header.
                head.status = active_status
                head.header_phase = pending_phase
                self.active[head.msg_id] = head
                self.pending[head.msg_id] = head
                self._progress = True
                break

    def _new_message(self, src: int, dst: int, created_cycle: int,
                     length: Optional[int] = None) -> Message:
        cfg = self.config
        msg = Message(
            msg_id=self._next_msg_id,
            src=src,
            dst=dst,
            length=length if length is not None else cfg.message_length,
            offsets=self.topology.offsets(src, dst),
            sig=self.topology.direction_signature(src, dst),
            created_cycle=created_cycle,
            inline_header=self._inline_header,
        )
        msg.hop_cap = HOP_CAP_BASE + HOP_CAP_FACTOR * msg.distance
        self._next_msg_id += 1
        return msg

    # ==================================================================
    # Finalization / bookkeeping
    # ==================================================================
    def _finalize(self, msg: Message, superseded: bool = False) -> None:
        # A terminal head unblocks its source queue: attend it.
        self._launch_attn.add(msg.src)
        self.active.pop(msg.msg_id, None)
        self.pending.pop(msg.msg_id, None)
        self.records.append(
            MessageRecord(
                msg_id=msg.msg_id,
                src=msg.src,
                dst=msg.dst,
                status=msg.status.name,
                created=msg.created_cycle,
                injected=msg.injected_cycle,
                delivered=msg.delivered_cycle,
                distance=msg.distance,
                hops=msg.hops_taken,
                misroutes=msg.misroute_total,
                backtracks=msg.backtrack_count,
                detours=msg.detour_count,
                retransmits=msg.retransmits,
                superseded=superseded,
            )
        )
