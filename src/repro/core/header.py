"""Routing header flit format and state (paper Section 5.0, Figure 9).

The Two-Phase header carries six fields:

1. *header bit* — identifies the flit as a routing header;
2. *backtrack bit* — header currently traveling toward the source;
3. *misroute count* — three bits, because up to six misroutes are
   needed to guarantee delivery with up to 2n-1 node faults (Thm 2);
4. *detour bit* — header is constructing a detour: no positive
   acknowledgments are sent and the probe/data separation may grow
   arbitrarily;
5. *SR bit* — set once the probe crosses an unsafe channel; from then
   on the scouting distance K is programmed into every virtual channel
   the probe crosses;
6. per-dimension signed *offsets* to the destination.

:class:`Header` is the live, mutable routing state the simulator works
with; :func:`encode` / :func:`decode` round-trip it through the packed
bit format of Figure 9, which pins down the hardware cost
(:func:`header_bits`).  ``tests/core/test_header.py`` pins the layout
with literal words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

#: Width of the misroute-count field in bits (Figure 9).
MISROUTE_FIELD_BITS = 3
#: Largest representable misroute budget.
MAX_MISROUTES = (1 << MISROUTE_FIELD_BITS) - 1
#: Misroute budget of TP's detour search and of MB-m: 6 guarantees
#: delivery with up to 2n-1 node faults (Theorem 2) and fits the field.
DEFAULT_MISROUTE_LIMIT = 6


def check_misroute_limit(limit: int) -> int:
    """``limit``, if the header's misroute field can count up to it."""
    if not 0 <= limit <= MAX_MISROUTES:
        raise ValueError(
            f"misroute limit {limit} is outside 0..{MAX_MISROUTES}, the "
            f"range of the {MISROUTE_FIELD_BITS}-bit header field"
        )
    return limit


@dataclass
class Header:
    """Mutable routing-header state for one message.

    ``offsets`` are the remaining signed hops per dimension and are
    updated as the header moves (they reach all-zero at the
    destination).  ``sig`` is their *direction class*, one base-4 digit
    per dimension (dimension ``d`` at ``4**d``): 0 no offset, 1 plus, 2
    minus, 3 the half-way tie of an even ring — i.e.
    :meth:`~repro.network.topology.KAryNCube.direction_signature` of the
    header's node and destination, which is what routing candidate sets
    are keyed on.  It needs the radix, so whoever builds the header from
    a topology sets it; :meth:`apply_hop` then keeps it current one digit
    per hop.  The Figure 9 word does not carry it (a router derives it
    from the offsets and k), so it takes no part in equality.
    """

    offsets: List[int]
    backtrack: bool = False
    misroutes: int = 0
    detour: bool = False
    sr: bool = False
    sig: int = field(default=0, compare=False)

    def at_destination(self) -> bool:
        return all(o == 0 for o in self.offsets)

    def distance(self) -> int:
        return sum(abs(o) for o in self.offsets)

    def apply_hop(self, dim: int, direction: int, k: int) -> None:
        """Update offsets after moving one hop along ``dim``.

        Offsets stay in the canonical ``[-k//2, k//2]`` window so a
        misrouted header re-derives the shortest way back; the
        dimension's direction-class digit follows.
        """
        off = self.offsets[dim] - direction
        half = k // 2
        if off > half:
            off -= k
        elif off < -half:
            off += k
        elif off == -half and k % 2 == 0:
            # Canonical form prefers the positive representation of an
            # exact half-way offset (matches KAryNCube.offset).  The
            # negative alias arises when a hop moves *away* from the
            # destination into the half-way tie (e.g. offset -2 in a
            # 6-ring, misrouted in the + direction).
            off = half
        self.offsets[dim] = off
        shift = 2 * dim
        digit = 0 if off == 0 else 3 if 2 * off == k else 1 if off > 0 else 2
        self.sig += (digit - ((self.sig >> shift) & 3)) << shift


def offset_field_bits(k: int) -> int:
    """Bits needed for one signed offset field in a radix-``k`` network."""
    # Offsets span [-(k//2), k//2]: k distinct values need ceil(log2(k))
    # bits, plus a sign representation slot for even k's +half alias.
    return max(1, math.ceil(math.log2(k + 1)))


def header_bits(k: int, n: int) -> int:
    """Total width in bits of the packed header flit (Figure 9)."""
    return 1 + 1 + MISROUTE_FIELD_BITS + 1 + 1 + n * offset_field_bits(k)


def encode(header: Header, k: int) -> int:
    """Pack a header into the Figure 9 bit layout (header bit first).

    Layout, MSB to LSB: header(1) | backtrack(1) | misroutes(3) |
    detour(1) | SR(1) | offset[0] | ... | offset[n-1].
    """
    if header.misroutes > MAX_MISROUTES:
        raise ValueError(
            f"misroute count {header.misroutes} exceeds the "
            f"{MISROUTE_FIELD_BITS}-bit field"
        )
    obits = offset_field_bits(k)
    half = k // 2
    word = 1  # header bit
    word = (word << 1) | int(header.backtrack)
    word = (word << MISROUTE_FIELD_BITS) | header.misroutes
    word = (word << 1) | int(header.detour)
    word = (word << 1) | int(header.sr)
    for off in header.offsets:
        if not -half <= off <= half:
            raise ValueError(f"offset {off} out of range for k={k}")
        word = (word << obits) | (off % (1 << obits))
    return word


def decode(word: int, k: int, n: int) -> Header:
    """Unpack a Figure 9 header word back into a :class:`Header`."""
    obits = offset_field_bits(k)
    offsets = []
    for _ in range(n):
        raw = word & ((1 << obits) - 1)
        # Sign-extend from the offset field width.
        if raw >= 1 << (obits - 1):
            raw -= 1 << obits
        offsets.append(raw)
        word >>= obits
    sr = bool(word & 1)
    word >>= 1
    detour = bool(word & 1)
    word >>= 1
    misroutes = word & MAX_MISROUTES
    word >>= MISROUTE_FIELD_BITS
    backtrack = bool(word & 1)
    word >>= 1
    if word != 1:
        raise ValueError("missing header identification bit")
    offsets.reverse()
    return Header(
        offsets=offsets,
        backtrack=backtrack,
        misroutes=misroutes,
        detour=detour,
        sr=sr,
    )
