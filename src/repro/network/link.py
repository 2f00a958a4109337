"""Physical-channel bandwidth allocation (paper Sections 2.1, 2.3).

Each unidirectional physical channel moves at most one flit per cycle.
Virtual channels share that bandwidth flit-by-flit in a demand-driven
manner (Dally virtual-channel flow control [6]); the single multiplexed
virtual *control* channel of the link (Figure 2b) takes priority over
data channels because control flits are a small fraction of traffic and
gate protocol progress.

This module provides the mechanisms the engine composes per link:

* :class:`ControlQueue` — the multiplexed control channel: a FIFO of
  control flits (headers, acks, kills, tail-acks, resume tokens)
  awaiting their turn on the physical wires, drained one per cycle.
* :class:`ControlPlane` — the control channels of a whole network: a
  channel has a :class:`ControlQueue` only while a flit is queued on
  it, and the busy channels are visited in ascending id.
* :class:`RoundRobinArbiter` — fair demand-driven selection among the
  data VCs that have a flit ready and downstream buffer space.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque, Dict, Generic, Iterator, List, Optional, Sequence, TypeVar,
)

T = TypeVar("T")


class ControlQueue(Generic[T]):
    """FIFO of control flits waiting to cross one physical channel.

    The paper multiplexes all corresponding and complementary channels
    of a link through a single virtual control channel; arrival order is
    preserved and one control flit crosses per cycle.
    """

    __slots__ = ("_queue", "sent")

    def __init__(self) -> None:
        self._queue: Deque[T] = deque()
        #: Total control flits that crossed this channel (statistic).
        self.sent = 0

    def push(self, token: T) -> None:
        self._queue.append(token)

    def pop(self) -> T:
        self.sent += 1
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self):
        """Iterate queued tokens without consuming them (auditing)."""
        return iter(self._queue)

    def peek(self) -> Optional[T]:
        return self._queue[0] if self._queue else None

    def drain(self) -> List[T]:
        """Remove and return all queued tokens (teardown support)."""
        items = list(self._queue)
        self._queue.clear()
        return items


class ControlPlane(Generic[T]):
    """Every control channel of a network, costing only its busy ones.

    Control flits are a small fraction of traffic, so almost every
    channel's FIFO is empty almost always: a :class:`ControlQueue`
    exists only between a channel's first push and the pop (or drain)
    that empties it.  :meth:`channels` lists the busy channels in
    ascending id — the order the engine's deterministic replay relies
    on — from a sorted view rebuilt only after the membership changed;
    the returned list is never mutated afterwards, so it can be
    iterated while flits are pushed and popped.  Iterating the plane
    yields every queued flit without consuming it (auditing, tracing).
    """

    __slots__ = ("_queues", "_order")

    def __init__(self) -> None:
        self._queues: Dict[int, ControlQueue[T]] = {}
        self._order: Optional[List[int]] = None

    def push(self, channel_id: int, token: T) -> None:
        queue = self._queues.get(channel_id)
        if queue is None:
            queue = self._queues[channel_id] = ControlQueue()
            self._order = None
        queue.push(token)

    def peek(self, channel_id: int) -> Optional[T]:
        queue = self._queues.get(channel_id)
        return None if queue is None else queue.peek()

    def pop(self, channel_id: int) -> T:
        queue = self._queues[channel_id]
        token = queue.pop()
        if not queue:
            del self._queues[channel_id]
            self._order = None
        return token

    def drain(self, channel_id: int) -> List[T]:
        """Remove and return everything queued on one channel."""
        queue = self._queues.pop(channel_id, None)
        if queue is None:
            return []
        self._order = None
        return queue.drain()

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

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Pick the next requester in round-robin order, or ``None``.

        ``requests[i]`` is True when requester ``i`` wants the resource
        this cycle.
        """
        if len(requests) != self.size:
            raise ValueError(
                f"expected {self.size} request lines, got {len(requests)}"
            )
        for offset in range(self.size):
            idx = (self._next + offset) % self.size
            if requests[idx]:
                self._next = (idx + 1) % self.size
                return idx
        return None

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
