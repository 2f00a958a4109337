"""Unit tests for the configurable flow-control model."""

import pytest

from repro.core.flow_control import (
    K_INFINITE,
    FlowControlConfig,
    FlowControlKind,
    gate_open,
    max_header_data_gap,
)


class TestConfig:
    def test_wormhole_has_no_k(self):
        fc = FlowControlConfig.wormhole()
        assert fc.kind is FlowControlKind.WORMHOLE
        assert fc.k_for(False) == 0
        assert fc.k_for(True) == 0

    def test_wormhole_rejects_k(self):
        with pytest.raises(ValueError):
            FlowControlConfig(kind=FlowControlKind.WORMHOLE, k_safe=1)

    def test_pcs_always_infinite(self):
        fc = FlowControlConfig.pcs()
        assert fc.k_for(False) == K_INFINITE
        assert fc.k_for(True) == K_INFINITE

    def test_scouting_switches_on_sr_bit(self):
        fc = FlowControlConfig.scouting(k_safe=0, k_unsafe=3)
        assert fc.k_for(False) == 0
        assert fc.k_for(True) == 3

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            FlowControlConfig.scouting(k_safe=-1)

    def test_frozen(self):
        fc = FlowControlConfig.pcs()
        with pytest.raises(AttributeError):
            fc.k_safe = 5


class TestGate:
    def test_k_zero_always_open(self):
        assert gate_open(0, 0, path_established=False)

    def test_counter_below_k_closed(self):
        assert not gate_open(2, 3, path_established=False)

    def test_counter_at_k_open(self):
        assert gate_open(3, 3, path_established=False)

    def test_infinite_waits_for_path(self):
        assert not gate_open(100, K_INFINITE, path_established=False)
        assert gate_open(0, K_INFINITE, path_established=True)


class TestGap:
    def test_k_zero_gap(self):
        assert max_header_data_gap(0) == 0

    def test_gap_formula(self):
        # Section 2.2: the gap grows up to 2K - 1 while advancing.
        assert max_header_data_gap(1) == 1
        assert max_header_data_gap(3) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            max_header_data_gap(-1)
