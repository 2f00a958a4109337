"""Virtual channel trio model (paper Section 2.3, Figure 2).

Every unidirectional *physical* channel carries data virtual channels,
each conceptually one third of a *virtual channel trio*
``(v_d, v_c, v_*)``:

* ``v_d`` — the data channel, crossed by data flits;
* ``v_c`` — the corresponding channel, crossed by routing headers;
* ``v_*`` — the complementary channel, running in the *opposite*
  direction, reserved for acknowledgment flits, kill flits, and
  backtracking headers.

As in the paper (Figure 2b), all corresponding/complementary channels of
one physical link are multiplexed through a single virtual control
channel, because control traffic is a small fraction of flit traffic.
The simulator therefore materializes only the data channels here; the
control channel is a FIFO per physical channel managed by the link layer
(:mod:`repro.network.link`), and complementary-channel traffic of a data
channel rides the control channel of the reverse physical channel.

Every physical channel carries three data virtual channels, one per
routing class of Duato's Protocol: two *deterministic* (escape) classes
that break torus wraparound cycles via datelines, and one fully
*adaptive* class (Section 4.0).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

#: Flits a data virtual channel's buffer holds.  Two is the least that
#: streams a flit per cycle: a one-flit buffer refuses a flit in the
#: cycle it drains.
BUFFER_DEPTH = 2


class VCClass(enum.Enum):
    """Routing class of a data virtual channel (Duato partition)."""

    #: Escape channel used before crossing the dimension's dateline.
    DETERMINISTIC_0 = 0
    #: Escape channel used after crossing the dimension's dateline.
    DETERMINISTIC_1 = 1
    #: Fully adaptive channel (minimal routing in DP; any direction in
    #: TP detour mode).
    ADAPTIVE = 2

    @property
    def is_deterministic(self) -> bool:
        return self is not VCClass.ADAPTIVE


class VCState(enum.Enum):
    FREE = 0
    #: Reserved by a routing header; owned until released by the tail
    #: flit (or a tail-acknowledgment / kill / backtracking header).
    RESERVED = 1


_FREE = VCState.FREE


class VirtualChannel:
    """State of one data virtual channel on one physical channel.

    The flit *contents* of the channel's buffer are tracked by the
    owning message (wormhole semantics guarantee a data channel carries
    at most one message at a time — "Only one message can be in
    progress over a data channel"), so this object only tracks
    reservation state and identity.
    """

    __slots__ = (
        "channel_id", "index", "vclass", "state", "owner", "grants",
        "notify_release",
    )

    def __init__(self, channel_id: int, index: int, vclass: VCClass):
        self.channel_id = channel_id
        self.index = index
        self.vclass = vclass
        self.state = VCState.FREE
        #: Owning message id while reserved (``None`` when free).
        self.owner: Optional[int] = None
        #: Total times this VC won physical-channel arbitration
        #: (utilization statistic).
        self.grants = 0
        #: State-change notification for the event-driven engine:
        #: called with the channel id on every release, no matter which
        #: subsystem triggered it (tail teardown, backtracking header,
        #: kill flit, dynamic-fault cleanup) — a release is the only
        #: transition that can unblock a parked routing header, so the
        #: engine funnels all of them through this single point instead
        #: of auditing call sites.  ``None`` when no engine listens.
        self.notify_release = None

    @property
    def is_free(self) -> bool:
        return self.state is VCState.FREE

    def reserve(self, message_id: int) -> None:
        if self.state is not VCState.FREE:
            raise ChannelStateError(
                f"VC {self.channel_id}.{self.index} already reserved "
                f"by message {self.owner}"
            )
        self.state = VCState.RESERVED
        self.owner = message_id

    def release(self) -> None:
        if self.state is not VCState.RESERVED:
            raise ChannelStateError(
                f"VC {self.channel_id}.{self.index} is not reserved"
            )
        self.state = VCState.FREE
        self.owner = None
        notify = self.notify_release
        if notify is not None:
            notify(self.channel_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualChannel(ch={self.channel_id}, idx={self.index}, "
            f"class={self.vclass.name}, state={self.state.name}, "
            f"owner={self.owner})"
        )


class ChannelStateError(RuntimeError):
    """Raised on an illegal virtual-channel state transition."""


#: Data virtual channels of every physical channel, by VC index: the
#: two dateline escape classes, then the adaptive class.
VC_CLASSES = (
    VCClass.DETERMINISTIC_0, VCClass.DETERMINISTIC_1, VCClass.ADAPTIVE,
)


class ChannelBank:
    """All data virtual channels of a network, indexed by physical channel.

    Provides the free-channel queries that routing functions use
    ("select safe profitable adaptive channel", etc.).  The virtual
    channels are one flat tuple, channel-major in :data:`VC_CLASSES`
    order, plus a tuple of every channel's adaptive VC: a free-adaptive
    lookup is one index, and every query tests
    ``vc.state`` directly.
    """

    vcs_per_channel = len(VC_CLASSES)

    def __init__(self, num_channels: int):
        self._vcs: Tuple[VirtualChannel, ...] = tuple(
            VirtualChannel(ch, idx, vclass)
            for ch in range(num_channels)
            for idx, vclass in enumerate(VC_CLASSES)
        )
        self._adaptive: Tuple[VirtualChannel, ...] = self._vcs[
            VC_CLASSES.index(VCClass.ADAPTIVE)::self.vcs_per_channel
        ]

    def set_release_notify(self, callback) -> None:
        """Subscribe ``callback(channel_id)`` to every VC release.

        Every VC holds the callback, so it must not hold the bank's
        owner: a bound method of the engine would close the cycle
        engine → bank → VC → engine that only the collector can free.
        """
        for vc in self._vcs:
            vc.notify_release = callback

    def vcs(self, channel_id: int) -> Tuple[VirtualChannel, ...]:
        per = self.vcs_per_channel
        return self._vcs[channel_id * per:(channel_id + 1) * per]

    def vc(self, channel_id: int, index: int) -> VirtualChannel:
        return self._vcs[channel_id * self.vcs_per_channel + index]

    def free_adaptive(self, channel_id: int) -> Optional[VirtualChannel]:
        """The adaptive VC of a physical channel, if it is free."""
        vc = self._adaptive[channel_id]
        return vc if vc.state is _FREE else None

    def deterministic(self, channel_id: int, vclass: VCClass) -> VirtualChannel:
        """The deterministic VC of the requested dateline class."""
        if vclass is VCClass.ADAPTIVE:
            raise ValueError(f"{vclass} is not a deterministic class")
        return self._vcs[channel_id * self.vcs_per_channel + vclass.value]

    def all_free(self) -> bool:
        """Whether every VC in the bank is free (drained-network check)."""
        return all(vc.state is _FREE for vc in self._vcs)
