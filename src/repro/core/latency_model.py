"""Closed-form minimum message latencies (paper Section 2.2).

For a message of ``L`` data flits crossing ``l`` links in an otherwise
idle network, with a one-flit header and unit flit-transfer time:

* wormhole:              ``t_WR  = l + L``
* scouting (distance K): ``t_SR  = l + (2K - 1) + L``  for ``K >= 1``
  (with ``K = 0`` scouting degenerates to wormhole)
* pipelined circuit switching: ``t_PCS = 3l + L - 1``

These formulas are the primary validation oracle for the flit-level
simulator: :mod:`tests.integration.test_latency_formulas` checks that
single-message simulations reproduce each expression exactly over a
grid of ``(l, L, K)``.
"""

from __future__ import annotations


def _check(links: int, length: int) -> None:
    if links < 1:
        raise ValueError(f"path must have at least one link, got {links}")
    if length < 1:
        raise ValueError(f"message must have at least one flit, got {length}")


def t_wormhole(links: int, length: int) -> int:
    """Minimum latency of wormhole routing: header + pipelined data."""
    _check(links, length)
    return links + length


def t_scouting(links: int, length: int, k: int) -> int:
    """Minimum latency of scouting routing with scouting distance ``k``.

    The first data flit waits at the source for ``k`` positive
    acknowledgments; the k-th returns after the header's k-th hop plus
    k reverse hops, delaying the data pipeline by ``2k - 1`` relative
    to wormhole.
    """
    _check(links, length)
    if k < 0:
        raise ValueError(f"scouting distance must be non-negative, got {k}")
    if k == 0:
        return t_wormhole(links, length)
    return links + (2 * k - 1) + length

def t_pcs(links: int, length: int) -> int:
    """Minimum latency of pipelined circuit switching.

    Path setup (l), path acknowledgment back to the source (l), then
    the data pipeline (l + L - 1 with the first data flit counted at
    its departure slot): ``3l + L - 1``.
    """
    _check(links, length)
    return 3 * links + length - 1
