"""Torus-connected k-ary n-cube topology (paper Section 2.1).

A k-ary n-cube is a direct network with ``n`` dimensions and ``k`` nodes
per dimension; every node connects to its two neighbors (modulo ``k``)
in each dimension over full-duplex physical links.  Nodes are identified
both by a flat integer id in ``[0, k**n)`` and by an ``n``-tuple of
per-dimension coordinates; this module provides the conversions,
neighborhood structure, and minimal-path geometry (signed offsets,
shortest distances) that every routing protocol in the package builds
on.

A geometry is immutable, so simulators do not build their own:
:func:`cube` hands every caller in the process the one instance of a
``(k, n)``, memo tables included.  Everything memoised on it is a tuple
and keyed on what its function reads of ``(node, dst)`` — O(N) entries
for the whole network, never one per pair — and so is the one
per-channel table, :attr:`KAryNCube.reverse_channels`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Direction along a dimension: +1 moves to ``(coord + 1) mod k``,
#: -1 moves to ``(coord - 1) mod k``.
PLUS = +1
MINUS = -1

DIRECTIONS = (PLUS, MINUS)


@dataclass(frozen=True)
class Channel:
    """A unidirectional physical channel ``src -> dst``.

    ``dim``/``direction`` describe the move in topology coordinates:
    following the channel changes coordinate ``dim`` of ``src`` by
    ``direction`` (modulo k).
    """

    src: int
    dst: int
    dim: int
    direction: int

    def reverse_key(self) -> Tuple[int, int, int]:
        """Key ``(src, dim, direction)`` of the opposite channel."""
        return (self.dst, self.dim, -self.direction)


class KAryNCube:
    """Geometry of a torus-connected k-ary n-cube.

    Parameters
    ----------
    k:
        Radix — number of nodes along each dimension (k >= 2).
    n:
        Number of dimensions (n >= 1).

    Notes
    -----
    With ``k == 2`` the +1 and -1 neighbors coincide; the paper's
    networks use ``k >= 3`` (16-ary 2-cube in the evaluation), and this
    class requires ``k >= 3`` so that every node has exactly ``2n``
    distinct neighbors, matching the fault analysis of Section 3.0.
    """

    def __init__(self, k: int, n: int):
        if k < 3:
            raise ValueError(f"radix k must be >= 3, got {k}")
        if n < 1:
            raise ValueError(f"dimension count n must be >= 1, got {n}")
        self.k = k
        self.n = n
        self.num_nodes = k**n
        # Strides for flat-id <-> coordinate conversion: dimension 0 is
        # the fastest-varying coordinate.
        self._strides = [k**d for d in range(n)]
        self._channels = self._build_channels()
        self._channel_index = {
            (c.src, c.dim, c.direction): i for i, c in enumerate(self._channels)
        }
        #: Channel id -> id of the opposite channel on the same link: the
        #: hop every acknowledgment, kill and backtracking header takes.
        self.reverse_channels: Tuple[int, ...] = tuple(
            self._channel_index[c.reverse_key()] for c in self._channels
        )
        self._ports = tuple(itertools.product(range(n), DIRECTIONS))
        #: Direction class of a ring offset ``(t - c) % k``; indexed with
        #: the raw difference ``t - c`` (a negative index wraps the same
        #: way the ring does): 0 none, 1 plus, 2 minus, 3 half-way tie.
        self._ring_class = tuple(
            0 if delta == 0 else 3 if 2 * delta == k
            else 1 if 2 * delta < k else 2
            for delta in range(k)
        )
        # Geometry memo tables, shared by every simulator of this
        # (k, n): pure functions of an immutable topology, keyed on what
        # they read — offsets on the per-dimension ring deltas (at most
        # k**n entries), profitable ports on the direction signature (at
        # most 4**n).
        self._offsets_cache: Dict[int, Tuple[int, ...]] = {}
        self._profitable_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        #: Dimension-order escape hops keyed by :meth:`escape_class` (at
        #: most 4n per node); filled by
        #: :meth:`repro.routing.cache.RouteCache.escape`.
        self.escape_hops: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, ...]:
        """Per-dimension coordinates of a flat node id."""
        self._check_node(node)
        return tuple((node // self._strides[d]) % self.k for d in range(self.n))

    def node_id(self, coords: Sequence[int]) -> int:
        """Flat node id of a coordinate tuple (coordinates taken mod k)."""
        if len(coords) != self.n:
            raise ValueError(
                f"expected {self.n} coordinates, got {len(coords)}"
            )
        return sum((c % self.k) * self._strides[d] for d, c in enumerate(coords))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} out of range for {self.k}-ary {self.n}-cube"
            )

    # ------------------------------------------------------------------
    # Neighborhood
    # ------------------------------------------------------------------
    def neighbor(self, node: int, dim: int, direction: int) -> int:
        """Neighbor of ``node`` one hop along ``dim`` in ``direction``."""
        self._check_node(node)
        if not 0 <= dim < self.n:
            raise ValueError(f"dimension {dim} out of range")
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be +1 or -1, got {direction}")
        coord = (node // self._strides[dim]) % self.k
        new_coord = (coord + direction) % self.k
        return node + (new_coord - coord) * self._strides[dim]

    def neighbors(self, node: int) -> List[int]:
        """All ``2n`` neighbors of ``node`` (dimension-major, +/- order)."""
        return [
            self.neighbor(node, d, s)
            for d in range(self.n)
            for s in DIRECTIONS
        ]

    def ports(self, node: int) -> Tuple[Tuple[int, int], ...]:
        """The ``(dim, direction)`` pairs of a node's ports."""
        return self._ports

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------
    def _build_channels(self) -> Tuple[Channel, ...]:
        channels = []
        for node in range(self.num_nodes):
            for dim in range(self.n):
                for direction in DIRECTIONS:
                    channels.append(
                        Channel(
                            src=node,
                            dst=self.neighbor(node, dim, direction),
                            dim=dim,
                            direction=direction,
                        )
                    )
        return tuple(channels)

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All unidirectional physical channels, in a stable order."""
        return self._channels

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def channel_id(self, src: int, dim: int, direction: int) -> int:
        """Dense integer id of the channel leaving ``src`` via a port."""
        return self._channel_index[(src, dim, direction)]

    def channel(self, channel_id: int) -> Channel:
        return self._channels[channel_id]

    def reverse_channel_id(self, channel_id: int) -> int:
        """Id of the channel in the opposite direction on the same link."""
        return self.reverse_channels[channel_id]

    # ------------------------------------------------------------------
    # Minimal-path geometry
    # ------------------------------------------------------------------
    def offset(self, src: int, dst: int, dim: int) -> int:
        """Signed shortest offset from ``src`` to ``dst`` along ``dim``.

        The result lies in ``[-k//2, k//2]``.  For even ``k`` the two
        halfway directions tie; the positive direction is returned, so
        deterministic routing is reproducible.
        """
        s = (src // self._strides[dim]) % self.k
        d = (dst // self._strides[dim]) % self.k
        delta = (d - s) % self.k
        if delta > self.k // 2:
            return delta - self.k
        if delta == self.k - delta:  # exact half-way tie on even k
            return delta
        return delta

    def offsets(self, src: int, dst: int) -> Tuple[int, ...]:
        """Signed shortest offsets in every dimension (header Fig 9)."""
        k = self.k
        key = 0
        here, there = src, dst
        for _ in range(self.n):  # base-k digits = ring deltas
            key = key * k + (there - here) % k
            here //= k
            there //= k
        cached = self._offsets_cache.get(key)
        if cached is None:
            cached = tuple(self.offset(src, dst, d) for d in range(self.n))
            self._offsets_cache[key] = cached
        return cached

    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        return sum(abs(o) for o in self.offsets(src, dst))

    def direction_signature(self, node: int, dst: int) -> int:
        """The direction class of ``dst`` seen from ``node``, per dimension.

        One base-4 digit per dimension, dimension ``d`` at ``4**d``: no
        offset, plus, minus, or the half-way tie of an even ring.
        Everything the profitable / unprofitable split reads of
        ``(node, dst)``.  A routing header carries it
        (:attr:`repro.core.header.Header.sig`) and updates one digit per
        hop instead of calling this.
        """
        ring_class = self._ring_class
        k = self.k
        sig = 0
        shift = 0
        for _ in range(self.n):  # base-k digits = coordinates
            sig |= ring_class[dst % k - node % k] << shift
            shift += 2
            node //= k
            dst //= k
        return sig

    def profitable_ports(self, node: int,
                         dst: int) -> Tuple[Tuple[int, int], ...]:
        """Ports of ``node`` that move the header closer to ``dst``.

        A *profitable link* (paper Section 2.1) is one over which the
        header moves closer to its destination.  For even ``k`` a
        half-way offset can be closed in either direction, and both
        ports are profitable.
        """
        key = self.direction_signature(node, dst)
        cached = self._profitable_cache.get(key)
        if cached is not None:
            return cached
        ports = []
        for dim in range(self.n):
            off = self.offset(node, dst, dim)
            if off == 0:
                continue
            if off > 0:
                ports.append((dim, PLUS))
                if 2 * off == self.k:  # tie: both ways are minimal
                    ports.append((dim, MINUS))
            else:
                ports.append((dim, MINUS))
                if 2 * (-off) == self.k:
                    ports.append((dim, PLUS))
        cached = self._profitable_cache[key] = tuple(ports)
        return cached

    def escape_class(self, node: int, dst: int) -> Optional[int]:
        """Everything the dimension-order escape hop reads of ``dst``.

        Packs ``node``, the lowest dimension still to correct, the
        shortest direction along it (positive on ties) and whether the
        ring path still has to cross the wrap-around link (the dateline
        class) into one int; ``None`` at the destination.
        """
        k = self.k
        rest, dst_rest = node, dst
        for dim in range(self.n):
            c, t = rest % k, dst_rest % k
            if c != t:
                plus = 2 * ((t - c) % k) <= k
                wrap = c > t if plus else c < t
                return ((node * self.n + dim) * 2 + plus) * 2 + wrap
            rest //= k
            dst_rest //= k
        return None

    def is_profitable(self, node: int, dst: int, dim: int, direction: int) -> bool:
        """Whether moving from ``node`` via the port gets closer to ``dst``."""
        off = self.offset(node, dst, dim)
        if off == 0:
            return False
        if 2 * abs(off) == self.k:
            return True
        return (off > 0) == (direction == PLUS)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KAryNCube(k={self.k}, n={self.n})"


@functools.lru_cache(maxsize=None)
def cube(k: int, n: int) -> KAryNCube:
    """The process-wide :class:`KAryNCube` of ``(k, n)``."""
    return KAryNCube(k, n)
