"""Closed-form advance of the network between interactions (DESIGN.md §8).

The jump ``Engine.run`` and ``Engine.drain`` take before each cycle:
every cycle in which no two messages interact and no timed event falls,
applied segment by segment, identical to stepping
(``tests/sim/test_reference_lockstep.py``).
"""

from __future__ import annotations

from itertools import accumulate

from repro.sim import control
from repro.sim.message import ControlKind, HeaderPhase

#: A bound that no segment reaches.
_UNBOUNDED = 1 << 62

#: Lead kinds: a TP K = 0 header setting up with its data train behind
#: it, an MB-m probe with its data gated at the source, and the path
#: acknowledgment of that probe walking back to the source.
_SETUP, _PROBE, _WALK = "setup", "probe", "walk"


def event_horizon(engine, limit: int, hook_horizon=None) -> int:
    """The cycle before the earliest timed event (hook, dynamic fault,
    audit tick), capped at ``limit``.  A hook's next event holds
    whatever the network holds, so it bounds every jump alike."""
    stop = limit
    if hook_horizon is not None:
        horizon = hook_horizon(engine)
        if horizon is not None and horizon - 1 < stop:
            stop = horizon - 1
    if engine.dynamic_schedule is not None:
        nxt = engine.dynamic_schedule.next_cycle()
        if nxt is not None and nxt - 1 < stop:
            stop = nxt - 1
    if engine.auditor is not None:
        tick = engine.auditor.next_audit_cycle(engine) - 1
        if tick < stop:
            stop = tick
    return stop


# A busy network (two headers pending, control flits on two channels)
# is rejected in O(1), and a timed event due next cycle (a hook that
# sees every cycle) in one horizon read, before any message is looked
# at.
def jump(engine, limit: int, hook_horizon=None) -> None:
    """Advance the clock in closed form as far as nothing interacts."""
    if (
        len(engine.pending) > 1
        or len(engine.control_out) > 1
        or engine._launch_attn
        or engine.ack_out
        or engine._staged_acks
        or engine._staged_path
    ):
        return
    start = engine.cycle
    stop = event_horizon(engine, limit, hook_horizon)
    if stop <= start:
        return
    plan = _plan(engine)
    if plan is None:
        return
    slots = (
        len(engine.faults.healthy_nodes)
        if engine.traffic_enabled and engine.injection.enabled else 0
    )
    while engine.cycle < stop and _segment(engine, plan, stop, slots):
        plan = _plan(engine)
        if plan is None:
            break
    jumped = engine.cycle - start
    if jumped:
        # Every jumped cycle moved a flit or a header, or had nothing
        # active: the watchdog's idle streak is zero.
        engine._idle_streak = 0
        engine.ctx.cycle = engine.cycle
        engine.fast_forwarded_cycles += jumped


# Apply one segment of ``plan``; return its length (0: none).  It ends
# at the first event: a worm's source running dry or tail ejecting, an
# arrival, the lead reaching the destination or the source, or a hop it
# cannot take.  The last cycle runs in phase order: hops, shifts, tail
# ejections in active order (their grant order), traffic.
def _segment(engine, plan, stop: int, slots: int) -> int:
    lead, kind, worms, room = plan
    start = engine.cycle
    n = min(stop - start, room)
    arrival = _UNBOUNDED
    if slots:
        arrival = engine.injection.idle_cycles(slots) + 1
        n = min(n, arrival)
    if n <= 0:
        return 0
    lag = 0
    if kind is _WALK:
        n = _walk_path_ack(engine, lead, n)
    elif kind is not None:
        if kind is _SETUP:
            # From the source the first hop moves no data: link 0
            # carries the header that cycle.
            lag = 0 if lead.path else 1
            if lead.at_source:
                n = min(n, lag + lead.at_source)
        n = _reserve_hops(engine, lead, n, worms)
    if not n:
        return 0
    for msg in worms:
        _advance_worm(engine, msg, start, n)
    if kind is _SETUP and n > lag:
        _advance_worm(engine, lead, start + lag, n - lag)
    engine.cycle = start + n
    if kind is not _WALK and lead is not None and (
        lead.path_nodes[-1] == lead.dst
    ):
        del engine.pending[lead.msg_id]
        control.header_reached_destination(engine, lead)
    for msg in worms:
        if msg.ejected == msg.total_flits:
            engine._drained(msg)
    if slots:
        if n == arrival:
            engine.injection.skip_cycles(n - 1, slots)
            engine._phase_traffic()
            return n
        engine.injection.skip_cycles(n, slots)
    if engine._launch_attn:
        engine._launch()
    return n


# (lead, kind, worms, room), or None where messages interact: every
# active message but at most one lead is a worm, ``room`` is the fewest
# cycles up to a worm's next event, and no two active messages share a
# destination.
def _plan(engine):
    token = None
    if engine.control_out:
        tokens = list(engine.control_out)
        if len(tokens) != 1 or tokens[0].kind is not ControlKind.PATH_ACK:
            return None
        token = tokens[0]
    lead = None
    worms = []
    room = _UNBOUNDED
    destinations = set()
    for msg in engine.active.values():
        if msg.dst in destinations:
            return None
        destinations.add(msg.dst)
        cycles = _worm_room(engine, msg)
        if cycles:
            worms.append(msg)
            if cycles < room:
                room = cycles
        elif lead is None:
            lead = msg
        else:
            return None
    if lead is None:
        # With traffic off an empty network is the drain's exit.
        empty = not (worms or engine.traffic_enabled)
        return None if token or empty else (None, None, worms, room)
    if token is not None:
        # Under PCS the data waits at the source until the walk ends.
        if engine._pcs and token.message is lead:
            return lead, _WALK, worms, room
        return None
    if (
        lead.header_phase is not HeaderPhase.PENDING
        or lead.parked
        or engine.routing_freeze
        or engine._setup_hop is None
    ):
        return None
    if engine._pcs:
        # Not parked, so MB-m's retry backoff is over: a header waiting
        # on it is parked until ``wake_at``, and every early wake
        # re-decides WAIT and parks again in the same cycle.
        return lead, _PROBE, worms, room
    buffered = lead.buffered
    if (
        lead.needs_path_ack
        or lead.header.detour
        or (buffered and (buffered[-1] or max(buffered) > 1))
    ):
        return None
    return lead, _SETUP, worms, room


# Cycles up to and including ``msg``'s next event (its source running
# dry, else its tail ejecting) if it is a worm, else 0.  A worm is
# delivered, its gates ahead are open, it holds at most one flit per
# two-flit buffer and none in the last (so an in-band header flit has
# ejected), and every link ahead of its tail is alone on its physical
# channel: each cycle every flit moves one hop.
def _worm_room(engine, msg) -> int:
    if msg.header_phase is not HeaderPhase.DELIVERED:  # GONE in teardown
        return 0
    path = msg.path
    last = len(path) - 1
    buffered = msg.buffered
    if buffered[last] or max(buffered) > 1:
        return 0
    if msg.head_link < last and msg.needs_path_ack and (
        not msg.path_established
    ):
        return 0
    if msg.at_source:
        first = 0
        room = msg.at_source
    else:
        first = msg.tail_idx + 1
        room = last - msg.tail_idx
    released = msg.released
    resident = engine._ch_resident
    for p in range(first, last + 1):
        if released[p] or resident[path[p].channel_id] != 1:
            return 0
    return room


# Shift ``msg``'s flits ``hops`` cycles on from cycle ``start``.  ``line``
# is the occupancy by position, extended ``hops`` places upstream by the
# source backlog or the void behind the tail; link p carried the flits
# that started within ``hops`` places upstream of it, and the flit at
# line[j] ejects in cycle start + last + hops - j.  A source running dry
# in the last cycle attends its queue and releases link 0; the tail's
# ejection is the caller's.
def _advance_worm(engine, msg, start: int, hops: int) -> None:
    path = msg.path
    last = len(path) - 1
    buffered = msg.buffered
    feeding = msg.at_source > 0
    line = [1 if feeding else 0] * hops + buffered[:last]
    before = list(accumulate(line, initial=0))
    moved = 0
    for p in range(0 if feeding else msg.tail_idx + 1, last + 1):
        carried = before[p + hops] - before[p]
        if carried:
            path[p].grants += carried
            moved += carried
    engine.data_flits_moved += moved
    buffered[:last] = line[:last]
    if msg.head_link < last:
        msg.head_link = min(last, msg.head_link + hops)
    tail_ack = engine._tail_ack_mode
    if feeding:
        if msg.injected_cycle is None:
            msg.injected_cycle = start + 1
        msg.at_source -= hops
        if not msg.at_source:
            engine._launch_attn.add(msg.src)
            if not tail_ack:
                control.release_link(msg, 0)
    else:
        tail = msg.tail_idx
        msg.tail_idx = tail + hops
        if not tail_ack:
            for p in range(tail + 1, tail + hops + 1):
                control.release_link(msg, p)
    ejected = before[last + hops] - before[last]
    if ejected:
        msg.ejected += ejected
        engine.flits_ejected += ejected
        engine._eject_last[msg.dst] = msg.msg_id
        final = start + last + hops
        lo = max(last, final - engine._measuring_to)
        hi = min(last + hops, final - engine._measuring_from)
        if lo < hi:
            engine.measured_delivered_flits += before[hi] - before[lo]


# Take up to ``cycles`` of the lead's set-up hops; return how many.  Each
# is the protocol's pure setup_hop verdict (K = 0: a TP lead has
# needs_path_ack unset), reserved and crossed on the control slot without
# a ControlFlit.  They stop at the destination, at the hop cap, and before
# a hop onto a channel holding another message's VC (its data slot).  A
# verdict reads the VC state of the cycle before, so the draining worms
# first release the link their tail crossed then.
def _reserve_hops(engine, lead, cycles: int, worms) -> int:
    setup_hop = engine._setup_hop
    ctx = engine.ctx
    resident = engine._ch_resident
    release = control.release_link
    draining = (
        [] if engine._tail_ack_mode
        else [(msg, msg.tail_idx) for msg in worms if not msg.at_source]
    )
    dst = lead.dst
    hops = 0
    while hops < cycles and lead.hops_taken <= lead.hop_cap:
        if hops:
            for msg, tail in draining:
                release(msg, tail + hops)
        decision = setup_hop(ctx, lead)
        if decision is None or resident[decision.vc.channel_id]:
            break
        engine._execute_reserve(lead, decision)
        lead.header_router += 1
        hops += 1
        if decision.hop[3] == dst:
            break
    if hops:
        engine.setup_hops += hops
        engine.control_flits_sent += hops
        lead.consecutive_waits = 0
    return hops


# Walk the lead's path acknowledgment up to ``cycles`` positions back;
# return how many.  Each position applies the staged effects of its
# arrival in repro.sim.control (one acknowledgment counted; MB-m holds no
# link) and, at the source, establishes the path; nothing reads them
# before the cycle ends, as the data waits at the source.  It stops
# before a channel holding a VC (its data slot).  A fault on a reverse
# channel fails the forward one too and tears the path down, so no relay
# is lost.
def _walk_path_ack(engine, lead, cycles: int) -> int:
    plane = engine.control_out
    token = next(iter(plane))
    path = lead.path
    reverse = engine._reverse
    resident = engine._ch_resident
    acks_at = lead.acks_at
    p = token.position
    walked = 0
    while walked < cycles:
        q = p - walked
        if resident[reverse[path[q].channel_id]]:
            break
        acks_at[q] += 1
        walked += 1
        if not q:
            lead.path_established = True
            break
    if walked:
        plane.drain(reverse[path[p].channel_id])
        engine.control_flits_sent += walked
        if not lead.path_established:
            token.position = p - walked
            token.ready_cycle = engine.cycle + walked + 1
            plane.push(reverse[path[p - walked].channel_id], token)
    return walked
