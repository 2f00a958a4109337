"""CLI tests (repro-sim)."""

import importlib

import pytest

from repro.cli import FIGURES, build_parser, main


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

    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "99"]) == 2
        assert "validation" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_every_advertised_figure_resolves(self, name):
        assert callable(importlib.import_module(FIGURES[name]).main)

    @pytest.mark.parametrize("alias,name", [
        ("FIG12", "12"), ("hw_acks", "hw-acks"), ("length-sweep", "length"),
    ])
    def test_figure_aliases_dispatch(self, alias, name, monkeypatch):
        called = []
        module = importlib.import_module(FIGURES[name])
        monkeypatch.setattr(module, "main", lambda: called.append(name))
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
