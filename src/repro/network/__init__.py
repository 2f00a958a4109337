"""Network substrate: topology, virtual channels, physical links."""

from repro.network.channel import (
    ChannelBank,
    ChannelStateError,
    VCClass,
    VCState,
    VirtualChannel,
)
from repro.network.link import ControlPlane, RoundRobinArbiter
from repro.network.topology import Channel, KAryNCube, MINUS, PLUS

__all__ = [
    "Channel",
    "ChannelBank",
    "ChannelStateError",
    "ControlPlane",
    "KAryNCube",
    "MINUS",
    "PLUS",
    "RoundRobinArbiter",
    "VCClass",
    "VCState",
    "VirtualChannel",
]
