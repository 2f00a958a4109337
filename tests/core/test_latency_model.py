"""Unit tests for the Section 2.2 closed-form latency expressions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency_model import (
    t_pcs,
    t_scouting,
    t_wormhole,
)


class TestFormulas:
    def test_wormhole(self):
        assert t_wormhole(8, 32) == 40

    def test_scouting_k3(self):
        # l + (2K - 1) + L
        assert t_scouting(8, 32, 3) == 8 + 5 + 32

    def test_scouting_k0_is_wormhole(self):
        assert t_scouting(8, 32, 0) == t_wormhole(8, 32)

    def test_pcs(self):
        assert t_pcs(8, 32) == 24 + 31

    def test_ordering_wr_sr_pcs(self):
        # For K < l the mechanisms order WR <= SR < PCS.
        for l in (3, 6, 10):
            for length in (1, 16, 64):
                assert (
                    t_wormhole(l, length)
                    <= t_scouting(l, length, 2)
                    < t_pcs(l, length)
                )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            t_wormhole(0, 5)
        with pytest.raises(ValueError):
            t_wormhole(5, 0)
        with pytest.raises(ValueError):
            t_scouting(5, 5, -1)

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_pcs_penalty_is_length_independent(self, l, length):
        # PCS - WR = 2l - 1 regardless of message length.
        assert t_pcs(l, length) - t_wormhole(l, length) == 2 * l - 1

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_scouting_penalty(self, l, length, k):
        assert t_scouting(l, length, k) - t_wormhole(l, length) == 2 * k - 1
