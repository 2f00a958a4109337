"""Unit tests for simulation configuration."""

import dataclasses

import pytest

from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    SimulationConfig,
)
from repro.sim.simulator import NetworkSimulator


def _bad(field, value, match=None, id=None, **context):
    """A case where ``field=value``, beside the fields in ``context``,
    is rejected with an error naming ``match`` (default: the field)."""
    return pytest.param(field, value, context, match or field,
                        id=id or f"{field}-{value}")


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

    @pytest.mark.parametrize("field,value,context,match", [
        _bad("warmup_cycles", -5),
        _bad("measure_cycles", -1),
        _bad("drain_cycles", -1),
        _bad("watchdog_cycles", 0),
        _bad("max_header_wait", 0),
        _bad("traffic_params", {"hotspot_fracton": 0.3},
             id="traffic_params-misspelt-key"),
        # The default uniform pattern reads no hotspot key.
        _bad("traffic_params", {"hotspot_fraction": 5},
             id="traffic_params-key-the-pattern-never-reads"),
        _bad("static_node_faults", -1),
        _bad("dynamic_faults", -1),
        _bad("max_retransmits", -1),
        # Rejected by the geometry, pattern, injection process or
        # protocol the config builds, not by a check of its own.
        _bad("traffic", "bogus"),
        _bad("k", 2, match="radix k"),
        _bad("traffic_params", {"hotspot_fraction": 5}, traffic="hotspot",
             match="hotspot_fraction", id="traffic_params-hotspot-fraction-5"),
        _bad("protocol", "bogus"),
        _bad("protocol_params", {"k_unsafe": -1}, match="k_unsafe",
             id="protocol_params-negative-k_unsafe"),
    ])
    def test_rejects_bad_run_control(self, field, value, context, match):
        owner = next(
            cls for cls in (SimulationConfig, FaultConfig, RecoveryConfig)
            if field in {f.name for f in dataclasses.fields(cls)}
        )
        with pytest.raises(ValueError, match=match):
            owner(**context, **{field: value})
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(owner(**context), **{field: value})

    def test_simulator_rejects_empty_window_at_construction(self):
        """A hand-driven Engine may have no measurement window; a
        NetworkSimulator run is summarized over one, so it must refuse
        before simulating anything rather than after warm-up + drain."""
        cfg = SimulationConfig(k=4, n=2, measure_cycles=0)
        with pytest.raises(ValueError, match="measure_cycles"):
            NetworkSimulator(cfg)

    def test_single_hotspot_node_is_a_one_node_hot_set(self):
        cfg = SimulationConfig(
            k=4, n=2, offered_load=0.05, warmup_cycles=50,
            measure_cycles=200, traffic="hotspot",
            traffic_params={"hotspot_nodes": 3, "hotspot_fraction": 1.0},
        )
        sim = NetworkSimulator(cfg)
        assert sim.engine.traffic.hotspots == [3]
        sim.run()
        # Node 3's own messages fall back to uniform destinations.
        assert {r.dst for r in sim.engine.records if r.src != 3} == {3}


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
