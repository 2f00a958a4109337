"""ReconfigController state machine over a scripted engine stub:
monitor gating, drain/commit, timeout ejection, finalize cancellation,
and the fast-forward event horizon."""

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.reconfig.controller import (
    PRESSURE_WEIGHTS,
    ReconfigController,
)
from repro.sim.config import ResilienceConfig
from repro.sim.message import HeaderPhase


def settings(**overrides) -> ResilienceConfig:
    base = dict(
        reconfig=True, reconfig_check_every=8, reconfig_window=64,
        reconfig_threshold=3, reconfig_drain_timeout=20,
        reconfig_cooldown=100,
    )
    base.update(overrides)
    return ResilienceConfig(**base)


class StubMessage:
    def __init__(self, msg_id, path=True,
                 header_phase=HeaderPhase.IN_FLIGHT, teardown=False):
        self.msg_id = msg_id
        self.path = [object()] if path else []
        self.header_phase = header_phase
        self.teardown = teardown
        self.header_router = 0


class StubEngine:
    """The engine surface the controller reads and mutates."""

    def __init__(self):
        self.topology = KAryNCube(5, 2)
        self.faults = FaultState(self.topology)
        self.cycle = 0
        self.active = {}
        self.deadlock_recoveries = 0
        self.teardown_counts = {}
        self.victim_cap_hits = 0
        self.auditor = None
        self.routing_freeze = False
        self.reconfigurations = 0
        self.reconfig_downtime_cycles = 0
        self.reconfig_victims = []
        self.last_recovery_cycle = 0
        self.torn_down = []

    def _teardown(self, msg, reason, router):
        self.torn_down.append((msg.msg_id, reason))
        del self.active[msg.msg_id]


def tick(ctl, engine, cycle):
    engine.cycle = cycle
    ctl(engine)


class TestMonitorGating:
    def test_no_trigger_without_epoch_movement(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        tick(ctl, engine, 8)  # snapshot
        engine.deadlock_recoveries = 10  # huge pressure, epoch static
        tick(ctl, engine, 16)
        assert ctl.state == ctl.MONITOR
        assert not engine.routing_freeze

    def test_no_trigger_below_threshold(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        tick(ctl, engine, 8)
        engine.faults.fail_link(0)  # epoch moves
        engine.teardown_counts = {"fault": 1}  # pressure 1 < 3
        tick(ctl, engine, 16)
        assert ctl.state == ctl.MONITOR

    def test_trigger_freezes_routing_and_enters_drain(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        tick(ctl, engine, 8)
        engine.faults.fail_link(0)
        engine.deadlock_recoveries = 1  # weight 3 -> pressure 3
        tick(ctl, engine, 16)
        assert ctl.state == ctl.DRAIN
        assert engine.routing_freeze

    def test_off_tick_cycles_are_no_ops(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        tick(ctl, engine, 8)
        engine.faults.fail_link(0)
        engine.deadlock_recoveries = 1
        tick(ctl, engine, 13)  # not a multiple of check_every
        assert ctl.state == ctl.MONITOR

    def test_window_expiry_resets_the_snapshot(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        tick(ctl, engine, 8)
        engine.deadlock_recoveries = 5
        tick(ctl, engine, 80)  # past the 64-cycle window: re-snapshot
        engine.faults.fail_link(0)
        tick(ctl, engine, 88)  # stale recoveries no longer counted
        assert ctl.state == ctl.MONITOR

    def test_static_power_on_faults_alone_never_trigger(self):
        engine = StubEngine()
        engine.faults.fail_link(0)  # epoch moved before the first tick
        ctl = ReconfigController(settings())
        tick(ctl, engine, 8)  # lazily adopts the post-placement epoch
        engine.deadlock_recoveries = 2
        tick(ctl, engine, 16)
        assert ctl.state == ctl.MONITOR


class TestDrainAndCommit:
    def _triggered(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        tick(ctl, engine, 8)
        engine.faults.fail_link(0)
        engine.deadlock_recoveries = 1
        tick(ctl, engine, 16)
        assert ctl.state == ctl.DRAIN
        return ctl, engine

    def test_commit_waits_for_mid_route_messages(self):
        ctl, engine = self._triggered()
        engine.active = {1: StubMessage(1)}
        tick(ctl, engine, 17)
        assert ctl.state == ctl.DRAIN
        assert engine.reconfigurations == 0

    def test_commit_once_drained(self):
        ctl, engine = self._triggered()
        epoch_before = engine.faults.epoch
        tick(ctl, engine, 17)
        assert ctl.state == ctl.MONITOR
        assert not engine.routing_freeze
        assert engine.reconfigurations == 1
        assert engine.faults.epoch == epoch_before + 1
        assert engine.faults.unsafe_radius == 2
        assert engine.last_recovery_cycle == 17
        event = ctl.events[-1]
        assert event.committed
        assert event.downtime == 17 - 16

    def test_delivered_and_teardown_messages_do_not_block_commit(self):
        ctl, engine = self._triggered()
        engine.active = {
            1: StubMessage(1, header_phase=HeaderPhase.DELIVERED),
            2: StubMessage(2, teardown=True),
            3: StubMessage(3, path=False),  # frozen at source
        }
        tick(ctl, engine, 17)
        assert engine.reconfigurations == 1

    def test_timeout_ejects_stragglers_in_msg_id_order(self):
        ctl, engine = self._triggered()
        engine.active = {5: StubMessage(5), 2: StubMessage(2)}
        tick(ctl, engine, 17)
        assert engine.reconfigurations == 0
        tick(ctl, engine, 16 + 20)  # drain_timeout reached
        assert engine.torn_down == [(2, "reconfig"), (5, "reconfig")]
        assert engine.reconfig_victims == [2, 5]
        assert engine.reconfigurations == 1
        assert ctl.events[-1].ejected == 2

    def test_cooldown_blocks_immediate_retrigger(self):
        ctl, engine = self._triggered()
        tick(ctl, engine, 17)  # commit at 17, cooldown until 117
        engine.faults.fail_link(3)
        engine.deadlock_recoveries += 2
        tick(ctl, engine, 24)
        assert ctl.state == ctl.MONITOR
        tick(ctl, engine, 120)
        assert ctl.state == ctl.DRAIN


class TestFinalize:
    def test_finalize_cancels_an_active_drain(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        tick(ctl, engine, 8)
        engine.faults.fail_link(0)
        engine.deadlock_recoveries = 1
        tick(ctl, engine, 16)
        engine.active = {1: StubMessage(1)}
        engine.cycle = 30
        epoch = engine.faults.epoch
        ctl.finalize(engine)
        assert not engine.routing_freeze
        assert engine.faults.epoch == epoch  # nothing committed
        assert engine.reconfigurations == 0
        assert engine.reconfig_downtime_cycles == 30 - 16
        event = ctl.events[-1]
        assert not event.committed

    def test_finalize_in_monitor_is_a_no_op(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        ctl.finalize(engine)
        assert ctl.events == []


class TestEventHorizon:
    def test_monitor_horizon_is_next_check_tick(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        engine.cycle = 10
        assert ctl.next_event_cycle(engine) == 16
        engine.cycle = 16
        assert ctl.next_event_cycle(engine) == 24

    def test_drain_horizon_is_every_cycle(self):
        ctl = ReconfigController(settings())
        engine = StubEngine()
        tick(ctl, engine, 8)
        engine.faults.fail_link(0)
        engine.deadlock_recoveries = 1
        engine.active = {1: StubMessage(1)}
        tick(ctl, engine, 16)
        assert ctl.state == ctl.DRAIN
        engine.cycle = 17
        assert ctl.next_event_cycle(engine) == 18


def test_pressure_weights_cover_all_counters():
    assert len(PRESSURE_WEIGHTS) == 5
