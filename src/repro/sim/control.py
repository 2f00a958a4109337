"""The control-token plane and the teardown it carries (Section 2.4).

Every control action is a token on the multiplexed control channel
(Figure 2b): a decoupled header's hop forward or back, a scouting
acknowledgment (on its own wires under ``hardware_acks``), the path
acknowledgment and a detour's resume token, kill flits (Figure 16) and
the tail acknowledgment.  Recovery tears the path down with kill flits
and retries from the source (Section 4.0).  Functions over the engine,
as :mod:`repro.sim.fast_forward` is; the three phases the cycle runs
from here are bound in :class:`~repro.sim.engine.Engine`'s class body.

Each rule is stated once:

* a token goes back toward the source — from router p to p − 1 over
  the reverse of ``path[p − 1]`` — through :func:`send_up`, first hop
  or relayed; only the forward header and KILL_DOWN go the other way;
* :func:`teardown` starts every teardown, an interrupt by a fault
  adding the downstream half;
* :func:`strand` applies a stranded kill or tail acknowledgment's
  remaining hops in one loop;
* :func:`kill_reached_source` makes the one source decision.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core import detour as detour_rules
from repro.sim import postmortem
from repro.sim.message import (
    ControlFlit,
    ControlKind,
    HeaderPhase,
    Message,
    MessageStatus,
)

#: Source-level retries of a message whose path construction failed
#: (the "re-try from the source" of Section 4.0), counted across its
#: retry clones.
MAX_SOURCE_RETRIES = 2

_HEADER_BACK = ControlKind.HEADER_BACK
_ACK_POS = ControlKind.ACK_POS
_ACK_NEG = ControlKind.ACK_NEG
_KILL_UP = ControlKind.KILL_UP
_KILL_DOWN = ControlKind.KILL_DOWN


# ======================================================================
# Phase 1: dynamic faults
# ======================================================================
def phase_dynamic_faults(engine) -> None:
    """Apply the fault events due this cycle: interrupt every circuit
    crossing a failed channel, strand its queued tokens, and drop the
    queued messages of failed sources."""
    sched = engine.dynamic_schedule
    # O(1) peek: the whole phase is skipped on every cycle with no
    # event due, which is all of them when no dynamic fault schedule is
    # armed.
    if sched is None or not sched.has_due(engine.cycle):
        return
    faults = engine.faults
    for event in sched.due(engine.cycle):
        event.apply(faults)
        engine._progress = True
        for ch in faults.last_failed_channels:
            # Interrupt circuits crossing the failed channel.
            for vc in engine.channels.vcs(ch):
                if vc.owner is None:
                    continue
                msg = engine.active.get(vc.owner)
                if msg is None:
                    vc.release()
                    continue
                idx = path_index_of(msg, vc)
                if idx is None:
                    continue
                interrupt(engine, msg, idx)
            # Control flits stranded on the failed channel.
            for token in engine.control_out.drain(ch):
                strand(engine, token)
            engine.ack_out.drain(ch)  # hardware acks vanish
        # Drop queued messages at failed sources.
        for node in faults.faulty_nodes:
            queue = engine.queues[node]
            while queue:
                msg = queue.pop(0)
                # An ACTIVE head from a now-dead source needs nothing
                # here: its channels are faulty and the channel loop
                # above interrupted it.
                if msg.status is MessageStatus.QUEUED:
                    msg.status = MessageStatus.KILLED
                    engine._finalize(msg)


def path_index_of(msg: Message, vc) -> Optional[int]:
    """The path link ``vc`` holds for ``msg``, if still held."""
    for idx in range(len(msg.path) - 1, -1, -1):
        if msg.path[idx] is vc and not msg.released[idx]:
            return idx
    return None


def strand(engine, token: ControlFlit) -> None:
    """A token is queued on, or sent onto, a channel that failed.

    It cannot physically travel: a kill or tail acknowledgment's
    remaining hops apply at once (an idealization of the paper's
    reliance on recovery as a last resort), a header lost with the
    channel tears its message down, and every other token vanishes —
    its message is torn down by the channel-owner scan or recovers
    through its remaining tokens.
    """
    msg = token.message
    kind = token.kind
    walk = _WALKS.get(kind)
    if walk is not None:
        p = token.position
        step = 1 if kind is _KILL_DOWN else -1
        while walk(engine, msg, p):
            p += step
    elif kind is ControlKind.HEADER or kind is _HEADER_BACK:
        if not msg.teardown and not msg.is_terminal():
            # The last path link sits on the dead channel; recover the
            # rest.  A backtracking header was retreating over it, so
            # the link below survives.
            release_link(msg, len(msg.path) - 1)
            router = msg.header_router
            teardown(engine, msg, "fault",
                     router - 1 if kind is _HEADER_BACK else router)


# ======================================================================
# Phase 3: control transfers
# ======================================================================
def phase_control_transfers(engine) -> Set[int]:
    """Each channel carries its head token if ready; return the
    channels of the shared control plane that did (no data flit
    crosses them this cycle)."""
    used: Set[int] = set()
    cycle = engine.cycle
    sent = 0
    # Dedicated ack wires first: they never consume the flit slot.
    if engine.ack_out:
        for _, token in engine.ack_out.pop_ready(cycle):
            sent += 1
            deliver(engine, token)
    if engine.control_out:
        for ch, token in engine.control_out.pop_ready(cycle):
            used.add(ch)
            sent += 1
            deliver(engine, token)
    if sent:
        engine.control_flits_sent += sent
        engine._progress = True
    return used


def push(engine, token: ControlFlit, channel_id: int) -> None:
    """Queue ``token`` for one hop over ``channel_id``: scouting
    acknowledgments on the ack plane, every other kind on the control
    channel.  One sent onto a failed channel is stranded."""
    if engine.faults.channel_faulty[channel_id]:
        strand(engine, token)
    elif token.kind is _ACK_POS or token.kind is _ACK_NEG:
        engine._ack_plane.push(channel_id, token)
    else:
        engine.control_out.push(channel_id, token)


def send_up(engine, kind: ControlKind, msg: Message, p: int,
            token: Optional[ControlFlit] = None) -> None:
    """Send a ``kind`` token from router ``p`` back to router ``p − 1``
    over the reverse of ``path[p − 1]``.

    ``token``, when given, is the one that just arrived at ``p`` and
    travels on — one :class:`ControlFlit` per chain of hops.  A token
    crosses from the next cycle, except a backtracking header, which
    crosses in the cycle of its routing decision as a forward one does.
    """
    ready = engine.cycle if kind is _HEADER_BACK else engine.cycle + 1
    if token is None:
        token = ControlFlit(kind, msg, p - 1, ready)
    else:
        token.position = p - 1
        token.ready_cycle = ready
    push(engine, token, engine._reverse[msg.path[p - 1].channel_id])


def relay(engine, token: ControlFlit, p: int) -> None:
    """Send the token that arrived at router ``p`` on one router: a
    KILL_DOWN toward the destination over ``path[p]``, every other
    kind back toward the source."""
    msg = token.message
    if token.kind is _KILL_DOWN:
        token.position = p + 1
        token.ready_cycle = engine.cycle + 1
        push(engine, token, msg.path[p].channel_id)
    else:
        send_up(engine, token.kind, msg, p, token)


def deliver(engine, token: ControlFlit) -> None:
    """A token crossed into router ``token.position``."""
    kind = token.kind
    msg = token.message
    p = token.position
    if kind is ControlKind.HEADER:
        _arrive_header(engine, msg, p)
    elif kind is _HEADER_BACK:
        _arrive_header_back(engine, msg, p)
    elif kind is _ACK_POS or kind is _ACK_NEG:
        _arrive_ack(engine, token, msg, p)
    elif kind is ControlKind.PATH_ACK or kind is ControlKind.RESUME:
        _arrive_path_ack(engine, token, msg, p)
    elif _WALKS[kind](engine, msg, p):
        relay(engine, token, p)


# ---------------- header arrivals -------------------------------------
def _arrive_header(engine, msg: Message, p: int) -> None:
    if msg.teardown or msg.is_terminal():
        return
    # The header moved: the routing decision is fresh (unpark).
    msg.parked = False
    msg.header_router = p
    msg.header_phase = HeaderPhase.PENDING
    node = msg.path_nodes[p]
    header = msg.header
    # Positive acknowledgment: SR mode, not constructing a detour.
    # At the destination the path acknowledgment subsumes it.
    if (
        engine._acks_by_sr[header.sr]
        and not header.detour
        and p >= 1
        and node != msg.dst
    ):
        send_up(engine, _ACK_POS, msg, p)
    if node == msg.dst:
        header_reached_destination(engine, msg)
        return
    if detour_rules.detour_complete(msg, at_destination=False):
        detour_rules.complete_detour(msg)
        if p >= 1:
            send_up(engine, ControlKind.RESUME, msg, p)
    engine.pending[msg.msg_id] = msg


def header_reached_destination(engine, msg: Message) -> None:
    """The destination consumed the header: send the path
    acknowledgment back when the data waits for it."""
    if msg.header.detour:
        detour_rules.complete_detour(msg)
    msg.header_phase = HeaderPhase.DELIVERED
    if msg.needs_path_ack and msg.path:
        send_up(engine, ControlKind.PATH_ACK, msg, len(msg.path))


def _arrive_header_back(engine, msg: Message, p: int) -> None:
    if msg.teardown or msg.is_terminal():
        return
    msg.parked = False
    msg.backtrack_lock = -1
    popped_vc = msg.path[-1]
    dim, direction = msg.arrival_dims[-1]
    was_misroute = msg.link_misroute[-1]
    if not msg.released[-1] and popped_vc.owner == msg.msg_id:
        popped_vc.release()
    msg.released[-1] = True
    msg.pop_path()
    msg.tried[p].add(popped_vc.channel_id)
    header = msg.header
    if header.detour:
        detour_rules.record_backtrack(msg, dim, direction, was_misroute)
    elif was_misroute:
        header.misroutes = max(0, header.misroutes - 1)
    header.apply_hop(dim, -direction, engine._k)
    header.backtrack = False
    msg.header_router = p
    msg.header_phase = HeaderPhase.PENDING
    msg.hops_taken += 1
    # Negative acknowledgment decrements the upstream counters.
    if engine._acks_by_sr[header.sr] and not header.detour and p >= 1:
        send_up(engine, _ACK_NEG, msg, p)
    engine.pending[msg.msg_id] = msg


# ---------------- acknowledgment arrivals -----------------------------
def _arrive_ack(engine, token: ControlFlit, msg: Message, p: int) -> None:
    if msg.teardown or msg.is_terminal():
        return
    if p >= len(msg.acks_at):
        return  # path shrank past this position (backtracking race)
    engine._staged_acks.append(
        (msg, p, 1 if token.kind is _ACK_POS else -1)
    )
    # Not propagated beyond the first data flit.
    if p > 0 and p > msg.head_link + 1:
        relay(engine, token, p)


def _arrive_path_ack(engine, token: ControlFlit, msg: Message,
                     p: int) -> None:
    if msg.teardown or msg.is_terminal():
        return
    establish = token.kind is ControlKind.PATH_ACK
    if establish and p < len(msg.acks_at):
        # The path acknowledgment is the destination's positive
        # acknowledgment: it increments the scouting counters it
        # passes (the per-hop ack is suppressed at the destination).
        engine._staged_acks.append((msg, p, +1))
    if p > 0 and p > msg.head_link + 1:
        engine._staged_path.append((msg, p, False))
        relay(engine, token, p)
        return
    engine._staged_path.append((msg, p, establish))


def apply_staged_gate_updates(engine) -> None:
    """Commit this cycle's acknowledgment effects (end-of-cycle)."""
    if engine._staged_acks:
        for msg, p, delta in engine._staged_acks:
            if p < len(msg.acks_at):
                msg.acks_at[p] += delta
        engine._staged_acks.clear()
    if engine._staged_path:
        for msg, p, establish in engine._staged_path:
            if p < len(msg.held):
                msg.held[p] = False
            if establish:
                msg.path_established = True
        engine._staged_path.clear()


# ---------------- teardown token arrivals ------------------------------
# Each returns whether the token goes on from router ``p``.
def _arrive_kill_up(engine, msg: Message, p: int) -> bool:
    release_link(msg, p)
    if p > 0:
        kill_buffer(engine, msg, p - 1)
        return True
    kill_reached_source(engine, msg)
    return False


def _arrive_kill_down(engine, msg: Message, p: int) -> bool:
    release_link(msg, p - 1)
    kill_buffer(engine, msg, p - 1)
    return p < len(msg.path)


def _arrive_tail_ack(engine, msg: Message, p: int) -> bool:
    release_link(msg, p)
    if p > 0:
        return True
    msg.tail_acked = True
    # The source queue head may now retire: attend its launch.
    engine._launch_attn.add(msg.src)
    if msg.status is MessageStatus.ACTIVE and (
        msg.delivered_cycle is not None
    ):
        msg.status = MessageStatus.DELIVERED
        engine._finalize(msg)
    return False


#: The arrival of each token that walks the whole path, hop by hop,
#: tearing it down.
_WALKS = {
    _KILL_UP: _arrive_kill_up,
    _KILL_DOWN: _arrive_kill_down,
    ControlKind.TAIL_ACK: _arrive_tail_ack,
}


def release_link(msg: Message, idx: int) -> None:
    """Give back the virtual channel of path link ``idx``, once."""
    if idx < 0 or idx >= len(msg.path) or msg.released[idx]:
        return
    vc = msg.path[idx]
    if vc.owner == msg.msg_id:
        vc.release()
    msg.released[idx] = True


def kill_buffer(engine, msg: Message, idx: int) -> None:
    """Discard the data flits buffered at the downstream end of link
    ``idx``."""
    if 0 <= idx < len(msg.buffered) and msg.buffered[idx]:
        lost = msg.buffered[idx]
        msg.buffered[idx] = 0
        msg.killed_flits += lost
        engine.killed_flits += lost


# ======================================================================
# Teardown / recovery (Section 2.4)
# ======================================================================
def interrupt(engine, msg: Message, fail_idx: int) -> None:
    """A dynamic fault severed ``msg``'s path at link ``fail_idx``:
    kill flits run from the break toward both ends."""
    if msg.teardown or msg.is_terminal():
        return
    release_link(msg, fail_idx)
    teardown(engine, msg, "fault", fail_idx)
    # Downstream side: toward the destination / header end.
    kill_buffer(engine, msg, fail_idx)
    if fail_idx + 1 < len(msg.path):
        push(
            engine,
            ControlFlit(_KILL_DOWN, msg, fail_idx + 2, engine.cycle + 1),
            msg.path[fail_idx + 1].channel_id,
        )


def abort(engine, msg: Message, reason: str) -> None:
    """Routing gave up: recover resources, then retry or drop."""
    engine.drop_reasons[reason] = engine.drop_reasons.get(reason, 0) + 1
    teardown(engine, msg, "abort", msg.header_router)


def teardown(engine, msg: Message, reason: str, from_router: int) -> None:
    """Tear ``msg`` down from router ``from_router`` back to its source:
    a kill flit follows the circuit upstream, or at the source the
    source decides at once."""
    if msg.teardown or msg.is_terminal():
        return
    msg.teardown = True
    msg.teardown_reason = reason
    engine.teardown_counts[reason] = (
        engine.teardown_counts.get(reason, 0) + 1
    )
    engine.last_recovery_cycle = engine.cycle
    msg.header_phase = HeaderPhase.GONE
    engine.pending.pop(msg.msg_id, None)
    engine._progress = True
    if from_router == 0 or not msg.path:
        kill_reached_source(engine, msg)
        return
    kill_buffer(engine, msg, from_router - 1)
    send_up(engine, _KILL_UP, msg, from_router)


def kill_reached_source(engine, msg: Message) -> None:
    """The teardown reached the source: retransmit, retry, or drop.

    Only while source and destination are alive: a message a fault
    killed is retransmitted under TAck + retransmit, and a message
    that committed no data — a path construction a fault cut (PCS-style
    set-up) or that was given up — is retried from the source
    (Section 4.0's higher-level retry), ``MAX_SOURCE_RETRIES`` times
    across its clones.  A retried message is superseded by a fresh
    clone at the head of its source queue; any other is KILLED after a
    fault and DROPPED otherwise.
    """
    release_link(msg, 0)
    if msg.is_terminal():
        return
    fault = msg.teardown_reason == "fault"
    msg.status = MessageStatus.KILLED if fault else MessageStatus.DROPPED
    rec = engine.config.recovery
    faulty = engine.faults.is_node_faulty
    retryable = not faulty(msg.src) and not faulty(msg.dst)
    if (retryable and fault and rec.retransmit
            and msg.retransmits < rec.max_retransmits):
        engine.retransmissions += 1
    elif (retryable and msg.retransmits < MAX_SOURCE_RETRIES
            and (not fault or msg.injected_flits == 0)):
        engine.source_retries += 1
    else:
        if not fault:
            msg.drop_reason = msg.drop_reason or "undeliverable"
        engine._finalize(msg)
        return
    clone = engine._new_message(
        msg.src, msg.dst, created_cycle=msg.created_cycle
    )
    clone.original_id = msg.original_id
    clone.retransmits = msg.retransmits + 1
    queue = engine.queues[msg.src]
    engine._launch_attn.add(msg.src)
    if queue and queue[0] is msg:
        queue[0] = clone
    else:
        queue.insert(0, clone)
    engine._finalize(msg, superseded=True)


def watchdog_expired(engine) -> None:
    """Diagnose the stall; recover by victim ejection or raise.

    The wait-for graph is built from live state
    (:func:`repro.sim.postmortem.diagnose`).  When no eligible victim
    exists, or after ``resilience.max_deadlock_recoveries`` ejections
    (at once when that is 0), the run fails with the rendered
    diagnosis.  Otherwise the victim is driven through the ordinary
    kill-flit teardown (Section 2.4) — its virtual channels free, the
    network resumes, and the victim retries from its source under the
    usual recovery bounds.
    """
    resilience = engine.config.resilience
    diagnosis = postmortem.diagnose(engine)
    summary = (
        f"no progress for {engine._idle_streak} cycles at cycle "
        f"{engine.cycle}; {len(engine.active)} active messages"
    )
    cap_hits_before = engine.victim_cap_hits
    victim = postmortem.select_victim(diagnosis, engine)
    if victim is None and engine.victim_cap_hits > cap_hits_before:
        failure = (
            f"victim re-ejection budget "
            f"({postmortem.MAX_VICTIM_EJECTIONS}) exhausted — every "
            f"remaining candidate was already ejected that many times"
        )
    elif victim is None:
        failure = "no recoverable victim"
    elif engine.deadlock_recoveries >= resilience.max_deadlock_recoveries:
        failure = (
            f"recovery budget ({resilience.max_deadlock_recoveries}) "
            "exhausted"
        )
    else:
        failure = None
    if failure is not None:
        raise postmortem.DeadlockError(
            f"{summary}; {failure}\n{diagnosis.render()}", diagnosis
        )
    engine.deadlock_recoveries += 1
    engine.deadlock_victims.append(victim.msg_id)
    origin = victim.original_id
    engine._ejections_by_origin[origin] = (
        engine._ejections_by_origin.get(origin, 0) + 1
    )
    teardown(engine, victim, "deadlock", victim.header_router)
    engine._idle_streak = 0
