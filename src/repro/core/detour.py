"""Detour construction bookkeeping for Two-Phase routing (Section 4.0).

When a Two-Phase header can no longer make progress it sets the detour
bit and performs a depth-first, backtracking search using at most ``m``
misroutes.  While the bit is set no positive acknowledgments flow and
the probe/data separation may grow arbitrarily; every channel reserved
during the detour keeps its data gate closed so that *all channels (or
none) in a detour are accepted before the data flits resume progress*.

A detour is complete when the probe reaches the destination or when
every misrouting step performed during its construction has been
*corrected*.  Correction accounting: each misroute pushes its
``(dimension, direction)`` onto a stack; a later profitable hop in the
opposite direction of a pending entry pops it (the displacement has
been undone); backtracking over a misrouted link also pops it and
refunds the misroute budget (Theorem 1's "backtracking over a misroute
removes it from the path and decrements the misroute count").
"""

from __future__ import annotations

from repro.sim.message import Message


def enter_detour(message: Message) -> None:
    """Switch the header into detour mode (Figure 6, final DP branch)."""
    message.header.detour = True
    message.detour_stack = []
    message.detour_count += 1


def record_forward_hop(message: Message, dim: int, direction: int,
                       is_misroute: bool) -> None:
    """Account a detour-mode forward hop on the correction stack."""
    if is_misroute:
        message.detour_stack.append((dim, direction))
        message.header.misroutes += 1
        message.misroute_total += 1
        return
    # A profitable hop opposite a pending misroute corrects it.
    opposite = (dim, -direction)
    for idx in range(len(message.detour_stack) - 1, -1, -1):
        if message.detour_stack[idx] == opposite:
            del message.detour_stack[idx]
            break


def record_backtrack(message: Message, dim: int, direction: int,
                     was_misroute: bool) -> None:
    """Account backtracking over a detour-mode link.

    ``(dim, direction)`` describe the link as originally taken
    (forward); backtracking removes it from the path.
    """
    if not was_misroute:
        return
    message.header.misroutes = max(0, message.header.misroutes - 1)
    for idx in range(len(message.detour_stack) - 1, -1, -1):
        if message.detour_stack[idx] == (dim, direction):
            del message.detour_stack[idx]
            break


def detour_complete(message: Message, at_destination: bool) -> bool:
    """Whether the detour under construction is finished."""
    if not message.header.detour:
        return False
    return at_destination or not message.detour_stack


def complete_detour(message: Message) -> None:
    """Reset the header to DP mode after a completed detour.

    The engine separately sends the resume token that re-opens the data
    gates of the channels accepted during the detour.
    """
    message.header.detour = False
    message.header.misroutes = 0
    message.detour_stack = []
