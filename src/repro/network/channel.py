"""Virtual channel trio model (paper Section 2.3, Figure 2).

Every unidirectional *physical* channel carries a configurable number of
data virtual channels.  Each data channel is conceptually one third of a
*virtual channel trio* ``(v_d, v_c, v_*)``:

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

Data virtual channels are partitioned into routing classes for Duato's
Protocol: two *deterministic* (escape) classes that break torus
wraparound cycles via datelines, and one or more fully *adaptive*
classes (Section 4.0).
"""

from __future__ import annotations

import enum
from typing import List, Optional


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


def build_vc_classes(num_adaptive: int) -> List[VCClass]:
    """Class layout of the data VCs on every physical channel.

    Duato's Protocol on a torus needs two deterministic (dateline)
    classes plus at least one adaptive class; ``num_adaptive`` scales
    the unrestricted partition.
    """
    if num_adaptive < 1:
        raise ValueError("at least one adaptive virtual channel is required")
    return [VCClass.DETERMINISTIC_0, VCClass.DETERMINISTIC_1] + [
        VCClass.ADAPTIVE
    ] * num_adaptive


class ChannelBank:
    """All data virtual channels of a network, indexed by physical channel.

    Provides the free-channel queries that routing functions use
    ("select safe profitable adaptive channel", etc.).
    """

    def __init__(self, num_channels: int, num_adaptive: int):
        self.classes = build_vc_classes(num_adaptive)
        self.vcs_per_channel = len(self.classes)
        self._vcs: List[List[VirtualChannel]] = [
            [
                VirtualChannel(ch, idx, vclass)
                for idx, vclass in enumerate(self.classes)
            ]
            for ch in range(num_channels)
        ]

    def set_release_notify(self, callback) -> None:
        """Subscribe ``callback(channel_id)`` to every VC release.

        Every VC holds the callback, so it must not hold the bank's
        owner: a bound method of the engine would close the cycle
        engine → bank → VC → engine that only the collector can free.
        """
        for row in self._vcs:
            for vc in row:
                vc.notify_release = callback

    def vcs(self, channel_id: int) -> List[VirtualChannel]:
        return self._vcs[channel_id]

    def vc(self, channel_id: int, index: int) -> VirtualChannel:
        return self._vcs[channel_id][index]

    def free_adaptive(self, channel_id: int) -> Optional[VirtualChannel]:
        """First free adaptive VC on a physical channel, if any."""
        for vc in self._vcs[channel_id]:
            if vc.vclass is VCClass.ADAPTIVE and vc.is_free:
                return vc
        return None

    def deterministic(self, channel_id: int, vclass: VCClass) -> VirtualChannel:
        """The deterministic VC of the requested dateline class."""
        if not vclass.is_deterministic:
            raise ValueError(f"{vclass} is not a deterministic class")
        return self._vcs[channel_id][vclass.value]

    def any_free(self, channel_id: int) -> bool:
        return any(vc.is_free for vc in self._vcs[channel_id])

    def all_free(self) -> bool:
        """Whether every VC in the bank is free (drained-network check)."""
        return all(vc.is_free for row in self._vcs for vc in row)

    def reserved_count(self) -> int:
        return sum(
            1 for row in self._vcs for vc in row if not vc.is_free
        )
