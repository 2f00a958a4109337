"""Chaos fault-storm harness: campaigns run clean, bursts land on
vulnerable messages, the gridlock scenario exercises real deadlock
recovery, and the CLI subcommand reports the verdict.
"""

import random

from repro.cli import main as cli_main
from repro.faults.chaos import (
    ChaosController,
    ChaosSpec,
    SCENARIOS,
    WARMUP_CYCLES,
    burst_schedule,
    run_campaign,
    run_one,
)
from repro.faults.injection import DynamicFaultSchedule
from repro.sim.message import HeaderPhase, Message
from tests.conftest import build_engine


def small_spec(**overrides) -> ChaosSpec:
    base = dict(
        seeds=(0, 1), protocols=("tp",), k=4, measure_cycles=400,
        bursts=2, burst_size=1,
    )
    base.update(overrides)
    return ChaosSpec(**base)


class TestBurstSchedule:
    def test_bursts_spread_across_measurement_window(self):
        spec = small_spec()
        cycles = burst_schedule(spec)
        assert len(cycles) == spec.bursts
        assert all(
            WARMUP_CYCLES < c < WARMUP_CYCLES + spec.measure_cycles
            for c in cycles
        )
        assert cycles == sorted(cycles)


class TestTriggerMatching:
    def _msg(self) -> Message:
        return Message(
            msg_id=1, src=0, dst=3, length=8,
            offsets=(3, 0), sig=0b0001,  # plus along dimension 0
            created_cycle=0, inline_header=False,
        )

    def test_setup_matches_pending_header(self):
        msg = self._msg()
        msg.header_phase = HeaderPhase.PENDING
        assert ChaosController._matches(msg, "setup")
        assert not ChaosController._matches(msg, "teardown")

    def test_teardown_matches_only_teardown(self):
        msg = self._msg()
        msg.teardown = True
        assert ChaosController._matches(msg, "teardown")
        assert not ChaosController._matches(msg, "setup")

    def test_backtrack_matches_locked_header(self):
        msg = self._msg()
        msg.backtrack_lock = 2
        assert ChaosController._matches(msg, "backtrack")


class TestNextEventCycle:
    """The hook's declared next event holds whatever the network holds:
    the burst's due cycle before it, then every cycle until it fires."""

    def _controller(self):
        return ChaosController(
            DynamicFaultSchedule(), random.Random(0), burst_cycles=[20],
            burst_size=1, node_fault_fraction=0.0,
        )

    def test_before_the_due_cycle_it_declares_the_due_cycle(self):
        engine = build_engine("tp", k=4)
        assert self._controller().next_event_cycle(engine) == 20

    def test_after_the_due_cycle_it_declares_the_next_cycle(self):
        ctl = self._controller()
        engine = build_engine("tp", k=4)
        engine.run(25)
        assert not engine.active
        assert ctl.next_event_cycle(engine) == 26
        engine.inject(0, 5)
        engine.run(1)
        assert engine.active
        assert ctl.next_event_cycle(engine) == 27


class TestCampaign:
    def test_small_campaign_passes_with_faults_injected(self):
        result = run_campaign(small_spec())
        assert result.ok
        assert result.total_faults > 0
        assert len(result.runs) == 2
        for run in result.runs:
            assert run.invariant_checks > 0
            assert run.invariant_violations == 0
            assert run.drained or run.accounted

    def test_render_reports_pass_verdict(self):
        result = run_campaign(small_spec(seeds=(0,)))
        report = result.render()
        assert "PASS" in report
        assert "deadlock recoveries" in report

    def test_gridlock_scenario_recovers_real_deadlocks(self):
        assert "det-naive" in SCENARIOS
        record = run_one(ChaosSpec(), seed=18, protocol="det-naive")
        assert record.ok
        assert record.recoveries > 0
        assert record.victims
        assert record.teardown_counts.get("deadlock", 0) > 0

    def test_default_spec_includes_gridlock_scenario(self):
        assert "det-naive" in ChaosSpec().protocols


class TestCli:
    def test_chaos_subcommand_runs_and_passes(self, capsys):
        rc = cli_main([
            "chaos", "--seeds", "1", "--protocols", "tp",
            "--k", "4", "--bursts", "1", "--burst-size", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
