"""Runtime invariant auditor (the resilience layer).

An optional per-cycle (or every-N-cycles) checker that cross-validates
the engine's live data structures against the conservation laws the
simulator is built on.  The point is to catch state corruption *at the
cycle it happens* — under chaos fault storms, a bookkeeping bug
surfaces thousands of cycles later as a hung drain or a wrong figure;
with the auditor on it surfaces as a :class:`InvariantError` naming the
message, the channel, and the cycle.

Checked invariants:

* **flit conservation** — for every live message, injected flits equal
  buffered + ejected + killed flits (:meth:`Message.flit_conservation_ok`);
* **buffer-depth bounds** — no per-link occupancy below zero or above
  :data:`~repro.network.channel.BUFFER_DEPTH`; no negative source
  backlog;
* **release consistency** — a link is released exactly when the tail
  flit has crossed it: for a live message that is not being torn down
  (and not holding its path for a tail acknowledgment),
  ``released[p]`` is true for ``p <= tail_idx`` once the source backlog
  is empty and for no ``p`` before that;
* **virtual-channel state legality** — a FREE VC has no owner, a
  RESERVED VC has one;
* **reservation/ownership consistency** — every unreleased path link of
  a live message is a VC reserved by that message, and every reserved
  VC in the :class:`~repro.network.channel.ChannelBank` is owned by a
  live message (or one still referenced by an in-flight teardown
  token);
* **index consistency** — the active and pending maps only hold
  messages in legal states.

Enable with ``ResilienceConfig(audit_invariants=True, audit_every=N)``;
the chaos harness (:mod:`repro.faults.chaos`) always runs with the
auditor on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.network.channel import BUFFER_DEPTH, VCState
from repro.sim.message import MessageStatus


@dataclass(frozen=True)
class InvariantViolation:
    """One violated invariant, pinned to a cycle / message / channel."""

    cycle: int
    kind: str
    detail: str
    msg_id: Optional[int] = None
    channel_id: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.msg_id is not None:
            where.append(f"msg {self.msg_id}")
        if self.channel_id is not None:
            where.append(f"ch {self.channel_id}")
        location = f" [{', '.join(where)}]" if where else ""
        return f"cycle {self.cycle}: {self.kind}{location}: {self.detail}"


class InvariantError(RuntimeError):
    """Raised by the engine when an audit finds violations."""

    def __init__(self, violations: List[InvariantViolation]):
        self.violations = violations
        report = "\n".join(str(v) for v in violations)
        super().__init__(
            f"{len(violations)} invariant violation(s):\n{report}"
        )


class InvariantAuditor:
    """Audits the engine it is handed; holds nothing but its counters.

    The engine owns its auditor, so the auditor keeps no reference back.
    """

    def __init__(self):
        self.checks_run = 0
        self.violations_found = 0

    def next_audit_cycle(self, engine) -> int:
        """First cycle strictly after ``engine.cycle`` at which an audit runs.

        The audit tick is part of the engine's event horizon: the
        fast-forward path must not jump past it, or ``checks_run`` (and
        any violation it would have caught) would diverge from the
        cycle-by-cycle run.
        """
        every = engine.config.resilience.audit_every
        return (engine.cycle // every + 1) * every

    def audit(self, engine) -> List[InvariantViolation]:
        """Run every check; returns (and counts) all violations found."""
        self.checks_run += 1
        out: List[InvariantViolation] = []
        self._check_messages(engine, out)
        self._check_channel_bank(engine, out)
        self._check_indexes(engine, out)
        self.violations_found += len(out)
        return out

    # ------------------------------------------------------------------
    # Per-message checks
    # ------------------------------------------------------------------
    def _check_messages(self, engine, out: List[InvariantViolation]) -> None:
        cycle = engine.cycle
        depth = BUFFER_DEPTH
        tail_ack = engine.config.recovery.tail_ack
        for msg in engine.active.values():
            if not msg.flit_conservation_ok():
                out.append(InvariantViolation(
                    cycle, "flit-conservation",
                    f"injected {msg.injected_flits} != buffered "
                    f"{sum(msg.buffered)} + ejected {msg.ejected} + "
                    f"killed {msg.killed_flits}",
                    msg_id=msg.msg_id,
                ))
            if msg.at_source < 0:
                out.append(InvariantViolation(
                    cycle, "buffer-bounds",
                    f"negative source backlog {msg.at_source}",
                    msg_id=msg.msg_id,
                ))
            if msg.ejected > msg.total_flits:
                out.append(InvariantViolation(
                    cycle, "buffer-bounds",
                    f"ejected {msg.ejected} of {msg.total_flits} flits",
                    msg_id=msg.msg_id,
                ))
            for i, occupancy in enumerate(msg.buffered):
                ch = msg.path[i].channel_id
                if occupancy < 0 or occupancy > depth:
                    out.append(InvariantViolation(
                        cycle, "buffer-bounds",
                        f"link {i} holds {occupancy} flits "
                        f"(depth {depth})",
                        msg_id=msg.msg_id, channel_id=ch,
                    ))
            # Ownership: unreleased path links must be reserved by us.
            if msg.is_terminal():
                continue
            # Tail-driven release: the data phase frees path[p] when the
            # tail flit crosses it, so ``released`` is a function of the
            # tail position (teardowns and tail-ack release otherwise).
            check_release = not (msg.teardown or tail_ack)
            tail_passed = msg.tail_idx if msg.at_source == 0 else -1
            for i, vc in enumerate(msg.path):
                if check_release and msg.released[i] != (i <= tail_passed):
                    out.append(InvariantViolation(
                        cycle, "release-consistency",
                        f"link {i} released={msg.released[i]} with the "
                        f"tail at {msg.tail_idx} and {msg.at_source} "
                        "flits at the source",
                        msg_id=msg.msg_id, channel_id=vc.channel_id,
                    ))
                if msg.released[i]:
                    continue
                if vc.owner != msg.msg_id:
                    out.append(InvariantViolation(
                        cycle, "ownership",
                        f"unreleased path link {i} owned by "
                        f"{vc.owner!r}, not by this message",
                        msg_id=msg.msg_id, channel_id=vc.channel_id,
                    ))

    # ------------------------------------------------------------------
    # ChannelBank checks
    # ------------------------------------------------------------------
    def _in_flight_message_ids(self, engine) -> Set[int]:
        """Ids referenced by control tokens still traveling.

        A message can be finalized at its source while its downstream
        kill/tail tokens are still releasing channels; those channels
        are legally reserved by an id no longer in ``engine.active``.
        """
        return {
            token.message.msg_id
            for plane in (engine.control_out, engine.ack_out)
            for token in plane
        }

    def _check_channel_bank(
        self, engine, out: List[InvariantViolation]
    ) -> None:
        cycle = engine.cycle
        live = engine.active
        in_flight: Optional[Set[int]] = None  # computed lazily
        for ch in range(engine.topology.num_channels):
            for vc in engine.channels.vcs(ch):
                free = vc.state is VCState.FREE
                if free and vc.owner is not None:
                    out.append(InvariantViolation(
                        cycle, "vc-state",
                        f"FREE vc{vc.index} has owner {vc.owner}",
                        channel_id=ch,
                    ))
                elif not free and vc.owner is None:
                    out.append(InvariantViolation(
                        cycle, "vc-state",
                        f"RESERVED vc{vc.index} has no owner",
                        channel_id=ch,
                    ))
                if free or vc.owner is None:
                    continue
                owner = live.get(vc.owner)
                if owner is not None:
                    if not any(
                        link is vc and not owner.released[i]
                        for i, link in enumerate(owner.path)
                    ):
                        out.append(InvariantViolation(
                            cycle, "ownership",
                            f"vc{vc.index} reserved by msg {vc.owner} "
                            "but absent from its unreleased path",
                            msg_id=vc.owner, channel_id=ch,
                        ))
                    continue
                if in_flight is None:
                    in_flight = self._in_flight_message_ids(engine)
                if vc.owner not in in_flight:
                    out.append(InvariantViolation(
                        cycle, "orphaned-reservation",
                        f"vc{vc.index} reserved by finished msg "
                        f"{vc.owner} with no teardown token in flight",
                        msg_id=vc.owner, channel_id=ch,
                    ))

    # ------------------------------------------------------------------
    # Index checks
    # ------------------------------------------------------------------
    def _check_indexes(self, engine, out: List[InvariantViolation]) -> None:
        cycle = engine.cycle
        for msg_id, msg in engine.active.items():
            if msg.status is not MessageStatus.ACTIVE:
                out.append(InvariantViolation(
                    cycle, "index",
                    f"active map holds {msg.status.name} message",
                    msg_id=msg_id,
                ))
        for msg_id in engine.pending:
            if msg_id not in engine.active:
                out.append(InvariantViolation(
                    cycle, "index",
                    "pending message not in the active map",
                    msg_id=msg_id,
                ))


def audit(engine) -> List[InvariantViolation]:
    """One-shot audit of an engine (tests / debugging convenience)."""
    return InvariantAuditor().audit(engine)
