"""CLI tests (repro-sim)."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import TABLES, build_parser, main
from repro.experiments.figures import FIGURES


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "tp"
        assert args.load == 0.1

    def test_figure_name(self):
        args = build_parser().parse_args(["figure", "12"])
        assert args.name == "12"

    def test_sweep_loads_parse(self):
        args = build_parser().parse_args(["sweep", "--loads", "0.1,0.2"])
        assert args.loads == "0.1,0.2"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_profile_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--profile", "--profile-out", "x.pstats"]
        )
        assert args.profile and args.profile_out == "x.pstats"

    def test_chaos_profile_flags(self):
        args = build_parser().parse_args(["chaos", "--profile"])
        assert args.profile and args.profile_out is None

    def test_storm_shares_the_campaign_flags(self):
        chaos = build_parser().parse_args(["chaos"])
        storm = build_parser().parse_args(["storm", "--profile"])
        assert storm.profile and storm.profile_out is None
        assert (chaos.seeds, storm.seeds) == (20, 4)
        for flag in ("k", "n", "jobs"):
            assert getattr(storm, flag) == getattr(chaos, flag)

    def test_run_has_no_profile_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--profile"])

    def test_sweep_out_without_find_knee_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_QUICK", "1")
        out = tmp_path / "knee.json"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--loads", "0.05", "--out", str(out)])
        assert exc.value.code == 2
        assert "--find-knee" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--loads", "0.05"],
        ["chaos", "--seeds", "1", "--protocols", "tp"],
        ["storm", "--seeds", "1"],
    ], ids=["sweep", "chaos", "storm"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, argv, jobs, capsys,
                                             monkeypatch):
        """Rejected while parsing (exit 2), not by the worker pool
        inside the run."""
        def never(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr("repro.cli.sweep_loads", never)
        monkeypatch.setattr("repro.faults.chaos.run_campaign", never)
        monkeypatch.setattr("repro.faults.chaos.run_storm_campaign", never)
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--jobs={jobs}"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "chaos"])
    @pytest.mark.parametrize("pair", ["bogus", "=3"])
    def test_pattern_param_without_key_is_a_usage_error(self, command, pair,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--pattern-param", pair])
        assert exc.value.code == 2
        assert "key=value" in capsys.readouterr().err

    def test_pattern_params_parse_as_pairs(self):
        args = build_parser().parse_args([
            "run", "--pattern-param", "hotspot_fraction=0.3",
            "--pattern-param", "hotspot_nodes=1,2",
        ])
        assert dict(args.pattern_param) == {
            "hotspot_fraction": 0.3, "hotspot_nodes": [1, 2],
        }

    def test_sweep_patterns_parse_as_a_list(self):
        args = build_parser().parse_args(
            ["sweep", "--pattern", "uniform,hotspot"]
        )
        assert args.pattern == ["uniform", "hotspot"]
        assert build_parser().parse_args(["sweep"]).pattern == ["uniform"]

    def test_sweep_unknown_pattern_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--pattern", "uniform,nope"])
        assert exc.value.code == 2
        assert "nope" in capsys.readouterr().err


class TestExecution:
    def test_run_prints_summary(self, capsys):
        rc = main([
            "run", "--protocol", "tp", "--k", "4", "--load", "0.05",
            "--warmup", "100", "--cycles", "400",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "latency" in out and "throughput" in out

    def test_run_with_faults(self, capsys):
        rc = main([
            "run", "--protocol", "mb", "--k", "4", "--load", "0.05",
            "--faults", "2", "--warmup", "100", "--cycles", "400",
        ])
        assert rc == 0
        assert "delivered" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,message", [
        (["--message-length", "0"], "message_length must be >= 1"),
        (["--k", "2"], "radix k must be >= 3"),
        (["--k", "4", "--faults", "20"], "cannot fail that many nodes"),
        (["--protocol", "mb", "--k-unsafe", "3"], "--k-unsafe"),
        (["--pattern-param", "hotspot_fraction=5"],
         "unknown traffic_params keys"),
    ], ids=["message-length", "radix", "faults", "k-unsafe-not-tp",
            "param-the-pattern-never-reads"])
    def test_run_rejects_bad_values_as_usage_errors(self, flags, message,
                                                    capsys):
        """Rejected by the config, the topology or the fault placement:
        a usage error (exit 2, the reason on stderr), not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["run", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("flags,message", [
        (["--loads", "0.05,abc"], "could not convert string to float"),
        (["--loads", "1.5"], "offered_load must be in [0, 1]"),
        (["--pattern-param", "bogus=1"], "unknown traffic_params keys"),
        (["--find-knee", "--knee-tol", "0"], "tolerance must be finite"),
        (["--protocol", "dp", "--k-unsafe", "3"], "--k-unsafe"),
    ], ids=["load-not-a-number", "load-above-one", "unknown-param",
            "knee-tol-zero", "k-unsafe-not-tp"])
    def test_sweep_rejects_bad_values_before_any_run(
        self, flags, message, capsys, monkeypatch
    ):
        """As for ``run``: a usage error (exit 2), raised before the
        first point is measured."""
        def no_run(*args, **kwargs):
            raise AssertionError("a point ran before the usage check")

        monkeypatch.setenv("REPRO_QUICK", "1")
        monkeypatch.setattr("repro.cli.sweep_loads", no_run)
        monkeypatch.setattr(
            "repro.experiments.saturation.find_knee", no_run
        )
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["chaos", "storm"])
    def test_campaign_rejects_bad_radix_before_any_run(self, command,
                                                       capsys):
        """Both campaign specs build their torus at construction: a
        radix it rejects exits 2, with the reason and no traceback."""
        assert main([command, "--k", "2", "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "radix k must be >= 3" in err and "Traceback" not in err

    def test_run_single_hotspot_node(self, capsys):
        rc = main([
            "run", "--k", "4", "--load", "0.05", "--warmup", "100",
            "--cycles", "300", "--pattern", "hotspot",
            "--pattern-param", "hotspot_nodes=3",
        ])
        assert rc == 0
        assert "delivered" in capsys.readouterr().out

    def test_sweep_one_series_per_pattern(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_QUICK", "1")
        rc = main(["sweep", "--loads", "0.05",
                   "--pattern", "uniform,hotspot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweep: tp (uniform, hotspot)" in out
        assert "uniform lat" in out and "hotspot lat" in out

    def test_sweep_one_knee_per_pattern_in_one_snapshot(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments.saturation import KneeProbe, KneeResult

        def fake_knee(scale, protocol, params, traffic, **kwargs):
            return KneeResult(
                pattern=traffic, protocol=protocol, scale_name=scale.name,
                knee_load=0.1, knee_throughput=0.09, base_latency=30.0,
                probes=[KneeProbe(0.1, 40.0, 0.09, False),
                        KneeProbe(0.2, 200.0, 0.1, True)],
            )

        monkeypatch.setattr(
            "repro.experiments.saturation.find_knee", fake_knee
        )
        out = tmp_path / "knees.json"
        rc = main(["sweep", "--find-knee", "--pattern", "uniform,bursty",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "uniform knee bracket" in text
        assert "bursty knee bracket" in text
        snapshot = json.loads(out.read_text())
        assert [w["workload"] for w in snapshot["workloads"]] == [
            "uniform/tp", "bursty/tp",
        ]

    def test_sweep_find_knee_searches_the_faulted_network(
        self, capsys, monkeypatch
    ):
        """``--faults`` reaches every probe of the knee search."""
        faults = []

        class Rep:
            def __init__(self, load):
                self.latency_mean = 30.0 if load <= 0.1 else 1e6
                self.throughput_mean = load

        def fake_point(scale, protocol, params, load, **kwargs):
            faults.append(kwargs.get("static_faults"))
            return Rep(load)

        monkeypatch.setenv("REPRO_QUICK", "1")
        monkeypatch.setattr(
            "repro.experiments.saturation.run_point", fake_point
        )
        assert main(["sweep", "--find-knee", "--faults", "2"]) == 0
        assert "uniform knee bracket" in capsys.readouterr().out
        assert len(faults) > 2 and set(faults) == {2}

    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "99"]) == 2
        assert "validation" in capsys.readouterr().err

    @staticmethod
    def _stub(monkeypatch, name, called):
        """Replace ``name``'s run and render with a recorder."""
        def run():
            called.append(name)

        def render(result):
            return f"report of {name}"

        if name in FIGURES:
            monkeypatch.setitem(
                FIGURES, name, SimpleNamespace(run=run, render=render)
            )
        else:
            monkeypatch.setitem(TABLES, name, (run, render))

    @pytest.mark.parametrize("name", sorted([*FIGURES, *TABLES]))
    def test_every_advertised_figure_resolves(self, name, monkeypatch,
                                              capsys):
        called = []
        self._stub(monkeypatch, name, called)
        assert main(["figure", name]) == 0
        assert called == [name]
        assert capsys.readouterr().out == f"report of {name}\n"

    @pytest.mark.parametrize("alias,name", [
        ("FIG12", "12"), ("hw_acks", "hw-acks"), ("length-sweep", "length"),
    ])
    def test_figure_aliases_dispatch(self, alias, name, monkeypatch):
        called = []
        self._stub(monkeypatch, name, called)
        assert main(["figure", alias]) == 0
        assert called == [name]

    def test_figure_formulas(self, capsys):
        assert main(["figure", "formulas"]) == 0
        assert "mismatches" in capsys.readouterr().out


class TestProfile:
    def test_sweep_profile_stderr_summary(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_QUICK", "1")
        rc = main(["sweep", "--loads", "0.05", "--profile"])
        captured = capsys.readouterr()
        assert rc == 0
        # The sweep table still lands on stdout untouched...
        assert "sweep: tp" in captured.out
        # ...while the cProfile report goes to stderr.
        assert "cumulative" in captured.err
        assert "function calls" in captured.err

    def test_chaos_profile_out_dumps_stats(self, capsys, monkeypatch,
                                           tmp_path):
        import pstats

        monkeypatch.setenv("REPRO_QUICK", "1")
        out = tmp_path / "chaos.pstats"
        rc = main([
            "chaos", "--seeds", "1", "--protocols", "tp",
            "--k", "4", "--bursts", "1", "--profile",
            "--profile-out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert out.exists()
        # The dump is a loadable pstats payload, not a text report.
        assert pstats.Stats(str(out)).total_calls > 0
        assert "cumulative" not in captured.err

    def test_profile_forces_serial_jobs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_QUICK", "1")
        rc = main(["sweep", "--loads", "0.05", "--profile",
                   "--jobs", "4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "forces --jobs 1" in captured.err
