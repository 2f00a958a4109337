"""Analytic bounds from the paper's Section 3.0.

Theorem 1 bounds the number of *consecutive* backtracking steps a
header performs as a function of the number of faulty components in a
k-ary n-cube (no prior misrouting, misrouting preferred):

* straight alley:        ``b = (f - 1) div (2n - 2)``
* alley ending in a turn: ``b = f div (2n - 2)``

Theorem 2: with fewer than 2n faults, at most 6 misroutes, misrouting
preferred over backtracking, and misroute channel chosen in the input
channel's dimension, the maximum consecutive backtracking distance
before forward progress is 3 (2 when only node faults occur), which is
why ``K = 3`` suffices and the CMU counter is two bits wide.

These functions are the oracle for the adversarial fault-pattern tests
and for sizing the scouting distance in the conservative TP variant.
"""

from __future__ import annotations



def _check_cube(n: int) -> None:
    if n < 2:
        raise ValueError(
            "theorems assume a k-ary n-cube with n >= 2 (2n - 2 > 0)"
        )


def max_backtrack_straight_alley(faults: int, n: int) -> int:
    """Theorem 1, case 1: maximum consecutive backtracks, straight alley.

    The first backtrack needs 2n-1 faulty channels around the dead-end
    node; each further step is forced by 2n-2 additional faults:
    ``b = (f - 1) div (2n - 2)``.
    """
    _check_cube(n)
    if faults < 0:
        raise ValueError("fault count must be non-negative")
    if faults < 2 * n - 1:
        return 0
    return (faults - 1) // (2 * n - 2)


def max_backtrack_turn_alley(faults: int, n: int) -> int:
    """Theorem 1, case 2: alley with a turn at the end — ``f div (2n-2)``."""
    _check_cube(n)
    if faults < 0:
        raise ValueError("fault count must be non-negative")
    if faults < 2 * n - 1:
        return 0
    return faults // (2 * n - 2)


def min_faults_for_backtracks(backtracks: int, n: int) -> int:
    """Faults needed to force ``b`` consecutive backtracks (case 1).

    Inverse of Theorem 1: ``f = 2n - 1 + (b - 1)(2n - 2)``.
    """
    _check_cube(n)
    if backtracks < 1:
        return 0
    return (2 * n - 1) + (backtracks - 1) * (2 * n - 2)


#: Misroute budget sufficient to search every input link of the
#: destination lying within a plane (Theorem 2 premise iii).
SUFFICIENT_MISROUTES = 6

#: Theorem 2's backtracking bound with mixed node/channel faults.
MAX_CONSECUTIVE_BACKTRACKS = 3

#: Theorem 2's bound when only node failures occur (footnote).
MAX_CONSECUTIVE_BACKTRACKS_NODE_FAULTS_ONLY = 2


def sufficient_scouting_distance(node_faults_only: bool = False) -> int:
    """Scouting distance K that always lets the header reach its probe.

    Theorem 2: the header never needs to backtrack more than 3
    consecutive links (2 for node-only fault patterns) provided the
    fault count is below 2n, so programming ``K = 3`` guarantees the
    probe can always retreat to the first data flit.
    """
    if node_faults_only:
        return MAX_CONSECUTIVE_BACKTRACKS_NODE_FAULTS_ONLY
    return MAX_CONSECUTIVE_BACKTRACKS


def fault_budget(n: int) -> int:
    """Largest fault count with guaranteed delivery: ``2n - 1``.

    2n faults can physically disconnect a k-ary n-cube (isolate a
    node); below that, one healthy node and one healthy channel
    adjacent to any destination are guaranteed to exist.
    """
    _check_cube(n)
    return 2 * n - 1


def cmu_counter_bits(k: int) -> int:
    """Width of the CMU per-VC acknowledgment counter for distance ``k``.

    Section 5.0: "For K = 3, a two bit counter is required for each
    virtual channel."
    """
    if k < 0:
        raise ValueError("scouting distance must be non-negative")
    if k == 0:
        return 0
    return max(1, k.bit_length())
