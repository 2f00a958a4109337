"""Unit tests for the Section 3.0 theorem bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theorems import (
    MAX_CONSECUTIVE_BACKTRACKS,
    SUFFICIENT_MISROUTES,
    cmu_counter_bits,
    fault_budget,
    max_backtrack_straight_alley,
    max_backtrack_turn_alley,
    min_faults_for_backtracks,
    sufficient_scouting_distance,
)


class TestTheorem1:
    def test_no_backtracks_below_threshold(self):
        # Fewer than 2n - 1 faults cannot force a backtrack (n = 2).
        assert max_backtrack_straight_alley(2, 2) == 0

    def test_first_backtrack_at_2n_minus_1(self):
        # n = 2: 3 faults force one backtrack.
        assert max_backtrack_straight_alley(3, 2) == 1

    def test_each_extra_backtrack_needs_2n_minus_2(self):
        # n = 2: f = 3 + 2(b-1)  ->  b = (f-1) div 2.
        assert max_backtrack_straight_alley(5, 2) == 2
        assert max_backtrack_straight_alley(7, 2) == 3

    def test_turn_alley_bound(self):
        # Case 2: b = f div (2n - 2).
        assert max_backtrack_turn_alley(6, 2) == 3
        assert max_backtrack_turn_alley(7, 2) == 3

    def test_higher_dimension_needs_more_faults(self):
        # n = 3: first backtrack needs 5 faults, each extra needs 4.
        assert max_backtrack_straight_alley(4, 3) == 0
        assert max_backtrack_straight_alley(5, 3) == 1
        assert max_backtrack_straight_alley(9, 3) == 2

    def test_inverse_relation(self):
        for n in (2, 3, 4):
            for b in (1, 2, 5):
                f = min_faults_for_backtracks(b, n)
                assert max_backtrack_straight_alley(f, n) == b

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            max_backtrack_straight_alley(3, 1)

    def test_rejects_negative_faults(self):
        with pytest.raises(ValueError):
            max_backtrack_straight_alley(-1, 2)

    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_faults(self, f, n):
        assert (
            max_backtrack_straight_alley(f + 1, n)
            >= max_backtrack_straight_alley(f, n)
        )

    @given(st.integers(min_value=3, max_value=100),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_turn_alley_at_least_straight(self, f, n):
        assert (
            max_backtrack_turn_alley(f, n)
            >= max_backtrack_straight_alley(f, n)
        )


class TestTheorem2:
    def test_constants(self):
        assert SUFFICIENT_MISROUTES == 6
        assert MAX_CONSECUTIVE_BACKTRACKS == 3

    def test_scouting_distance(self):
        assert sufficient_scouting_distance() == 3
        assert sufficient_scouting_distance(node_faults_only=True) == 2

    def test_fault_budget(self):
        assert fault_budget(2) == 3
        assert fault_budget(3) == 5


class TestCounterWidth:
    def test_paper_claim_two_bits_for_k3(self):
        # Section 5.0: "For K = 3, a two bit counter is required".
        assert cmu_counter_bits(3) == 2

    def test_zero_k_needs_no_counter(self):
        assert cmu_counter_bits(0) == 0

    def test_widths(self):
        assert cmu_counter_bits(1) == 1
        assert cmu_counter_bits(4) == 3
        assert cmu_counter_bits(7) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cmu_counter_bits(-1)
