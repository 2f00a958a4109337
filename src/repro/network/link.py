"""Physical-channel bandwidth allocation (paper Sections 2.1, 2.3).

Each unidirectional physical channel moves at most one flit per cycle.
Virtual channels share that bandwidth flit-by-flit in a demand-driven
manner (Dally virtual-channel flow control [6]); the single multiplexed
virtual *control* channel of the link (Figure 2b) takes priority over
data channels because control flits are a small fraction of traffic and
gate protocol progress.

This module provides the mechanisms the engine composes per link:

* :class:`ControlPlane` — the multiplexed control channels of a whole
  network: per physical channel a FIFO of control flits (headers, acks,
  kills, tail-acks, resume tokens) awaiting their turn on the wires,
  drained one per cycle.  A channel has a FIFO only while a flit is
  queued on it, and the busy channels are visited in ascending id.
* :class:`RoundRobinArbiter` — fair demand-driven selection among the
  data VCs that have a flit ready and downstream buffer space.
"""

from __future__ import annotations

from typing import (
    Dict, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

T = TypeVar("T")


class ControlPlane(Generic[T]):
    """Every control channel of a network, costing only its busy ones.

    The paper multiplexes all corresponding and complementary channels
    of a link through a single virtual control channel; arrival order is
    preserved per channel and one control flit crosses per cycle.
    Control flits are a small fraction of traffic, so almost every
    channel's FIFO is empty almost always — and most pushes find it
    empty: a channel's FIFO is a bare list that exists only between its
    first push and the pop (or drain) that empties it.  A list, not a
    ``deque``: a FIFO rarely holds more than a couple of flits, and a
    one-flit list costs a tenth of a deque to build and a twelfth of its
    memory.  :meth:`channels` lists the busy channels in ascending id —
    the order the engine's deterministic replay relies on — from a
    sorted view rebuilt only after the membership changed; the returned
    list is never mutated afterwards, so it can be iterated while flits
    are pushed and popped.  Iterating the plane yields every queued
    flit without consuming it (auditing, tracing).
    """

    __slots__ = ("_queues", "_order")

    def __init__(self) -> None:
        self._queues: Dict[int, List[T]] = {}
        self._order: Optional[List[int]] = None

    def push(self, channel_id: int, token: T) -> None:
        queue = self._queues.get(channel_id)
        if queue is None:
            self._queues[channel_id] = [token]
            self._order = None
        else:
            queue.append(token)

    def peek(self, channel_id: int) -> Optional[T]:
        queue = self._queues.get(channel_id)
        return None if queue is None else queue[0]

    def pop(self, channel_id: int) -> T:
        queue = self._queues[channel_id]
        token = queue.pop(0)
        if not queue:
            del self._queues[channel_id]
            self._order = None
        return token

    def pop_ready(self, cycle: int) -> Iterator[Tuple[int, T]]:
        """Pop the head flit of every busy channel whose head is ready
        (``ready_cycle <= cycle``) and yield ``(channel_id, flit)``, in
        ascending channel id.

        One flit per channel: the walk is over the :meth:`channels`
        snapshot taken when it starts, so flits pushed while it runs
        wait for the next call.
        """
        queues = self._queues
        for channel_id in self.channels():
            queue = queues[channel_id]
            if queue[0].ready_cycle > cycle:
                continue
            token = queue.pop(0)
            if not queue:
                del queues[channel_id]
                self._order = None
            yield channel_id, token

    def drain(self, channel_id: int) -> List[T]:
        """Remove and return everything queued on one channel."""
        queue = self._queues.pop(channel_id, None)
        if queue is None:
            return []
        self._order = None
        return queue

    def channels(self) -> List[int]:
        """The busy channels in ascending id, stable against mutation."""
        if self._order is None:
            self._order = sorted(self._queues)
        return self._order

    def __len__(self) -> int:
        return len(self._queues)

    def __iter__(self) -> Iterator[T]:
        for channel_id in self.channels():
            yield from self._queues[channel_id]


class RoundRobinArbiter:
    """Rotating-priority arbiter over a fixed number of requesters.

    Mirrors the demand-driven, flit-by-flit physical bandwidth
    allocation of [6]: the requester after the most recent winner has
    the highest priority, so every VC with pending flits gets a fair
    share of the link.
    """

    __slots__ = ("size", "_next")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("arbiter needs at least one requester")
        self.size = size
        self._next = 0

    def grant_from(self, candidates: Sequence[int]) -> Optional[int]:
        """Round-robin grant when requests arrive as a candidate list.

        ``candidates`` holds requester indices (possibly unsorted).
        Returns the winning index or ``None`` when empty.
        """
        if not candidates:
            return None
        best = None
        best_rank = self.size
        for idx in candidates:
            rank = (idx - self._next) % self.size
            if rank < best_rank:
                best_rank = rank
                best = idx
        assert best is not None
        self._next = (best + 1) % self.size
        return best
