"""Unit tests for simulation configuration."""

import dataclasses

import pytest

from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    SimulationConfig,
)
from repro.sim.simulator import NetworkSimulator


class TestValidation:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.total_cycles == cfg.warmup_cycles + cfg.measure_cycles

    def test_rejects_bad_load(self):
        with pytest.raises(ValueError):
            SimulationConfig(offered_load=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(offered_load=-0.1)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            SimulationConfig(message_length=0)

    @pytest.mark.parametrize("field,value", [
        ("warmup_cycles", -5),
        ("measure_cycles", -1),
        ("drain_cycles", -1),
        ("watchdog_cycles", 0),
        ("max_header_wait", 0),
        pytest.param(
            "traffic_params", {"hotspot_fracton": 0.3},
            id="traffic_params-misspelt-key",
        ),
        ("static_node_faults", -1),
        ("dynamic_faults", -1),
        ("max_retransmits", -1),
    ])
    def test_rejects_bad_run_control(self, field, value):
        owner = next(
            cls for cls in (SimulationConfig, FaultConfig, RecoveryConfig)
            if field in {f.name for f in dataclasses.fields(cls)}
        )
        with pytest.raises(ValueError, match=field):
            owner(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(owner(), **{field: value})

    def test_simulator_rejects_empty_window_at_construction(self):
        """A hand-driven Engine may have no measurement window; a
        NetworkSimulator run is summarized over one, so it must refuse
        before simulating anything rather than after warm-up + drain."""
        cfg = SimulationConfig(k=4, n=2, measure_cycles=0)
        with pytest.raises(ValueError, match="measure_cycles"):
            NetworkSimulator(cfg)


class TestWith:
    def test_with_replaces_fields(self):
        cfg = SimulationConfig(k=8)
        cfg2 = cfg.with_(k=16, offered_load=0.2)
        assert cfg2.k == 16 and cfg2.offered_load == 0.2
        assert cfg.k == 8  # original untouched

    def test_with_validates(self):
        with pytest.raises(ValueError):
            SimulationConfig().with_(offered_load=2.0)


class TestSubConfigs:
    def test_fault_config_defaults(self):
        fc = FaultConfig()
        assert fc.static_node_faults == 0
        assert fc.dynamic_faults == 0

    def test_recovery_defaults(self):
        rc = RecoveryConfig()
        assert not rc.tail_ack
        assert not rc.retransmit
        assert rc.max_retransmits >= 1
