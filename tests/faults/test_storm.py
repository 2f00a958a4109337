"""Storm resilience benchmark: determinism (production == reference
engine, parallel == serial), report shape, unknown names, and CLI exit
codes — including the nonzero-exit contract CI gates on for both
campaign subcommands."""

from dataclasses import asdict

import pytest

import repro.faults.chaos as chaos
from repro.cli import main as cli_main
from repro.faults.chaos import (
    ARMS,
    STORM_SCENARIOS,
    ChaosCampaignResult,
    ChaosRunRecord,
    ChaosSpec,
    StormCampaignResult,
    StormSpec,
    run_campaign,
    run_one,
    run_storm_campaign,
    run_storm_one,
)
from tests.sim.reference_engine import ReferenceSimulator


def small_spec(**overrides) -> StormSpec:
    base = dict(
        seeds=(0,), scenarios=("linkstorm",), k=4, measure_cycles=600,
    )
    base.update(overrides)
    return StormSpec(**base)


class TestStormRuns:
    def test_both_arms_run_clean_and_inject_faults(self):
        for arm in ARMS:
            record = run_storm_one(small_spec(), "linkstorm", 0, arm)
            assert record.ok, record.error
            assert record.faults_injected > 0
            assert 0.0 <= record.storm_delivery_ratio <= 1.0
            assert record.storm_delivered <= record.delivered

    def test_reconfig_arm_only_reconfigures(self):
        spec = small_spec(scenarios=("gridlock",), k=6, seeds=(0,),
                          measure_cycles=1500)
        tp = run_storm_one(spec, "gridlock", 0, "tp-only")
        rc = run_storm_one(spec, "gridlock", 0, "reconfig")
        assert tp.reconfigurations == 0
        assert tp.reconfig_downtime == 0
        assert rc.reconfigurations > 0

    def test_production_matches_reference(self, monkeypatch):
        """The controllers' event horizons and the engine's skip paths
        must leave storm runs identical to the reference engine's."""
        production = [
            run_storm_one(small_spec(), "linkstorm", 0, arm) for arm in ARMS
        ]
        monkeypatch.setattr(chaos, "NetworkSimulator", ReferenceSimulator)
        for arm, record in zip(ARMS, production):
            assert record == run_storm_one(small_spec(), "linkstorm", 0, arm)


class TestStormCampaign:
    def test_parallel_equals_serial(self):
        """Both campaigns come through the one ordered fan-out."""
        chaos_spec = ChaosSpec(
            seeds=(0, 1), protocols=("tp", "det-naive"), k=4,
            measure_cycles=400,
        )
        for campaign, spec in (
            (run_storm_campaign, small_spec(seeds=(0, 1))),
            (run_campaign, chaos_spec),
        ):
            serial = campaign(spec, jobs=1)
            parallel = campaign(spec, jobs=2)
            assert len(serial.runs) == 4
            assert [asdict(r) for r in serial.runs] == [
                asdict(r) for r in parallel.runs
            ]

    def test_report_shape_is_compare_bench_compatible(self):
        result = run_storm_campaign(small_spec(), jobs=1)
        report = result.report()
        assert report["ok"]
        workloads = {row["workload"] for row in report["workloads"]}
        assert workloads == {
            f"linkstorm/{arm}" for arm in ARMS
        }
        for row in report["workloads"]:
            assert "storm_delivery_ratio" in row
            assert "recovery_latency_mean" in row
            assert "reconfig_downtime" in row

    def test_render_reports_verdict(self):
        result = run_storm_campaign(small_spec(), jobs=1)
        assert "PASS" in result.render()

    def test_default_spec_covers_acceptance_scenario(self):
        assert "gridlock" in StormSpec().scenarios
        assert "gridlock" in STORM_SCENARIOS


class TestUnknownNames:
    """One validator per catalog: the same ValueError, listing the
    choices, from a run function and from the spec a campaign or the
    CLI (exit 2, below) would run."""

    @pytest.mark.parametrize("make,match", [
        (lambda: run_storm_one(small_spec(), "nope", 0, "tp-only"),
         r"unknown storm scenario 'nope'; choose from \['gridlock'"),
        (lambda: run_storm_one(small_spec(), "linkstorm", 0, "nope"),
         r"unknown arm 'nope'; choose from \['reconfig', 'tp-only'\]"),
        (lambda: run_one(ChaosSpec(), 0, "nope"),
         r"unknown protocol 'nope'; choose from \['det', 'det-naive'"),
        (lambda: ChaosSpec(protocols=("tp", "nope")), "unknown protocol"),
        (lambda: StormSpec(scenarios=("nope",)), "unknown storm scenario"),
    ], ids=["scenario", "arm", "protocol", "chaos-spec", "storm-spec-scenario"])
    def test_unknown_name_is_a_value_error(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestSpecValues:
    """A spec rejects a value its runs would ignore or crash on, before
    any run."""

    @pytest.mark.parametrize("make,match", [
        (lambda: ChaosSpec(seeds=()), "at least one seed"),
        (lambda: StormSpec(seeds=()), "at least one seed"),
        (lambda: ChaosSpec(bursts=-1), "bursts and burst_size"),
        (lambda: ChaosSpec(burst_size=0), "bursts and burst_size"),
        (lambda: ChaosSpec(node_fault_fraction=-0.1), "node_fault_fraction"),
        (lambda: ChaosSpec(node_fault_fraction=1.5), "node_fault_fraction"),
        (lambda: ChaosSpec(traffic="nope"), "unknown traffic pattern"),
        (lambda: ChaosSpec(traffic_params={"bogus": 1}),
         "unknown traffic_params keys"),
        (lambda: ChaosSpec(traffic="hotspot",
                           traffic_params={"hotspot_fraction": 2}),
         "hotspot_fraction"),
        # det-naive's own load and length overflow this duty cycle.
        (lambda: ChaosSpec(protocols=("det-naive",), traffic_params={
            "burst_on": 1, "burst_off": 60}), "cannot fit"),
        (lambda: StormSpec(k=2), "radix k must be >= 3"),
    ], ids=["chaos-no-seeds", "storm-no-seeds", "bursts", "burst-size",
            "node-share-negative", "node-share-above-one", "pattern",
            "param-key", "param-value", "scenario-load", "storm-radix"])
    def test_rejected_at_construction(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_each_protocol_is_checked_with_its_own_workload(self):
        """The duty cycle det-naive overflows fits tp's load."""
        ChaosSpec(protocols=("tp",),
                  traffic_params={"burst_on": 1, "burst_off": 60})

    @pytest.mark.parametrize("argv,message", [
        (["chaos", "--seeds", "1", "--bursts", "-1", "--protocols", "tp"],
         "bursts and burst_size must be >= 1"),
        (["chaos", "--pattern-param", "bogus=1"],
         "unknown traffic_params keys"),
        (["storm", "--seeds", "0"], "a campaign needs at least one seed"),
    ], ids=["chaos-bursts", "chaos-param", "storm-seeds"])
    def test_cli_exits_2(self, argv, message, capsys, monkeypatch):
        def no_run(spec, jobs=None):
            raise AssertionError("a campaign ran with a rejected spec")

        monkeypatch.setattr(chaos, "run_campaign", no_run)
        monkeypatch.setattr(chaos, "run_storm_campaign", no_run)
        assert cli_main(argv) == 2
        assert message in capsys.readouterr().err


class TestCliExitCodes:
    def test_storm_subcommand_runs_and_passes(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_resilience.json"
        rc = cli_main([
            "storm", "--seeds", "1", "--scenarios", "linkstorm",
            "--k", "4", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert out_path.exists()

    def test_storm_unknown_scenario_exits_2(self, capsys):
        assert cli_main(["storm", "--scenarios", "nope"]) == 2
        assert "unknown storm scenario 'nope'" in capsys.readouterr().err

    def test_chaos_unknown_protocol_exits_2(self, capsys):
        assert cli_main(["chaos", "--protocols", "tp,nope"]) == 2
        assert "unknown protocol 'nope'" in capsys.readouterr().err

    def test_storm_failure_exits_nonzero(self, capsys, monkeypatch):
        failing = StormCampaignResult(spec=StormSpec())
        monkeypatch.setattr(
            chaos, "run_storm_campaign", lambda spec, jobs=None: failing
        )
        assert cli_main(["storm"]) == 1

    def test_chaos_failure_exits_nonzero(self, capsys, monkeypatch):
        """CI gates on this: a campaign with any failed run must not
        exit 0."""
        bad_run = ChaosRunRecord(
            seed=0, protocol="tp", faults_injected=1, triggers_hit=[],
            recoveries=0, victims=[], teardown_counts={}, delivered=0,
            dropped=0, killed=0, invariant_checks=1,
            invariant_violations=1, drained=True, accounted=True,
        )
        failing = ChaosCampaignResult(spec=ChaosSpec(), runs=[bad_run])
        monkeypatch.setattr(
            chaos, "run_campaign", lambda spec, jobs=None: failing
        )
        assert cli_main(["chaos"]) == 1
