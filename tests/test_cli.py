"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        assert set(sub.choices) == {
            "simulate",
            "price",
            "tune",
            "migrate",
            "report",
            "figures",
            "export",
            "validate",
            "roofline",
            "trace",
            "profile",
            "dashboard",
            "perfetto",
            "serve",
            "submit",
            "jobs",
        }

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


#: every subcommand's option strings and defaults, as they parsed before
#: the flag groups became shared parent parsers — a change here is a
#: change to the command-line interface
PARSER_SURFACE = {
    "simulate": {
        "-n": 8,
        "--steps": 5,
        "--ranks": 1,
        "--faults": None,
        "--fault-seed": 0,
        "--checkpoint-every": 1,
        "--checkpoint-dir": None,
        "--restart-from": None,
        "--timeout": 30.0,
        "--max-retries": 3,
        "--degrade-policy": "restart",
        "--chaos-runs": 0,
        "--chaos-seed": 0,
        "--live": False,
        "--events-out": None,
    },
    "price": {"device": None, "--model": "sycl", "--variant": "select", "-n": 8},
    "tune": {"device": None, "-n": 8},
    "migrate": {"--no-optimize": False},
    "report": {"-o --output": None, "-n": 8},
    "figures": {},
    "export": {"-o --output": "artifacts.json", "-n": 8},
    "validate": {"-n": 6, "--steps": 2},
    "roofline": {"device": None, "--variant": "select", "-n": 8},
    "trace": {
        "-n": 6,
        "--steps": 2,
        "--device": None,
        "--model": "sycl",
        "--variant": "select",
        "--ranks": 1,
        "--faults": None,
        "--fault-seed": 0,
        "--checkpoint-dir": None,
        "--checkpoint-every": 1,
        "--timeout": 30.0,
        "--max-retries": 3,
        "-o --events-out": "events.jsonl",
        "--flame": False,
    },
    "dashboard": {
        "events": None,
        "--width": 80,
        "--follow": False,
        "--poll": 0.2,
        "--duration": None,
    },
    "perfetto": {"events": None},
    "profile": {"device": None, "--model": "sycl", "--variant": "select", "-n": 8},
    "serve": {
        "--socket": "repro.sock",
        "--workers": 2,
        "--cache-mb": 256,
        "--quota": 64,
        "--checkpoint-dir": None,
        "--events-out": None,
    },
    "submit": {
        "--socket": "repro.sock",
        "-n": 6,
        "--steps": 2,
        "--seed": 2023,
        "--products": "diagnostics",
        "--faults": None,
        "--ranks": 1,
        "--degrade-policy": None,
        "--tenant": "default",
        "--priority": 1,
        "--deadline-in": None,
        "--stream": False,
        "--json": False,
        "--timeout": 600.0,
    },
    "jobs": {"--socket": "repro.sock", "--stats": False, "--timeout": 30.0},
}


class TestParserSurface:
    def test_option_strings_and_defaults_are_unchanged(self):
        import argparse

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        surface = {
            name: {
                " ".join(action.option_strings) or action.dest: action.default
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
            }
            for name, parser in sub.choices.items()
        }
        assert surface == PARSER_SURFACE


class TestCommands:
    def test_simulate_tiny(self, capsys):
        assert main(["simulate", "-n", "6", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "kernel launches recorded" in out

    def test_price_reports_timers(self, capsys):
        assert main(["price", "Frontier", "--variant", "memory_object"]) == 0
        out = capsys.readouterr().out
        assert "upGeo" in out
        assert "total" in out

    def test_price_unsupported_combination_fails(self, capsys):
        assert main(["price", "Polaris", "--variant", "visa"]) == 1
        assert "does not compile" in capsys.readouterr().err

    def test_price_cuda_on_aurora_fails(self, capsys):
        assert main(["price", "Aurora", "--model", "cuda"]) == 1

    def test_tune(self, capsys):
        assert main(["tune", "Aurora"]) == 0
        out = capsys.readouterr().out
        assert "Auto-tuning on Aurora" in out

    def test_migrate(self, capsys):
        assert main(["migrate"]) == 0
        out = capsys.readouterr().out
        assert "geometry" in out
        assert "inflation" in out

    def test_export(self, tmp_path, capsys):
        target = tmp_path / "artifacts.json"
        assert main(["export", "-o", str(target)]) == 0
        import json

        document = json.loads(target.read_text())
        assert document["schema_version"] == 1

    def test_validate_healthy_run(self, capsys):
        assert main(["validate", "-n", "6", "--steps", "1"]) == 0
        assert "validation: OK" in capsys.readouterr().out

    def test_roofline(self, capsys):
        assert main(["roofline", "Frontier"]) == 0
        out = capsys.readouterr().out
        assert "ridge" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "-o", str(target)]) == 0
        text = target.read_text()
        assert "# CRK-HACC SYCL performance-portability reproduction" in text
        assert "Figure 12" in text
        assert "Table 2" in text


class TestDegradationFlags:
    def test_degrade_policy_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--degrade-policy", "catch-fire"]
            )

    def test_degrade_policy_default_is_restart(self):
        args = build_parser().parse_args(["simulate"])
        assert args.degrade_policy == "restart"
        assert args.chaos_runs == 0

    def test_simulate_shrink_kill_finishes_degraded(self, capsys):
        code = main(
            [
                "simulate", "-n", "6", "--steps", "2", "--ranks", "3",
                "--degrade-policy", "shrink",
                "--faults", "kill:rank=1,step=1",
                "--timeout", "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "finished on 2" in out
        assert "shrink" in out

    def test_chaos_runs_flag_soaks(self, capsys):
        code = main(
            ["simulate", "--chaos-runs", "2", "--chaos-seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "chaos soak: 2 run(s)" in out
        assert "invariant HELD" in out

    def test_chaos_runs_must_be_positive(self, capsys):
        assert main(["simulate", "--chaos-runs", "-4"]) == 2
        assert "--chaos-runs" in capsys.readouterr().out


class TestTimeoutValidation:
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_simulate_rejects_nonpositive_timeout(self, capsys, value):
        assert main(["simulate", "--timeout", value]) == 2
        assert "--timeout must be positive" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_trace_rejects_nonpositive_timeout(self, capsys, value):
        assert main(["trace", "--timeout", value]) == 2
        assert "--timeout must be positive" in capsys.readouterr().out

    def test_resilient_simulate_rejects_nonpositive_timeout(self, capsys):
        assert main(["simulate", "--ranks", "2", "--timeout", "0"]) == 2
        assert "--timeout must be positive" in capsys.readouterr().out


class TestRunCoreValidation:
    """simulate, trace and validate share one argument check: what one
    rejects with ``error: ...`` and exit 2, none dies of a traceback on."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["trace", "--ranks", "2", "--checkpoint-dir", "D"]
                + ["--checkpoint-every", "0"],
                "error: --checkpoint-every must be >= 1",
            ),
            (
                ["trace", "--ranks", "2", "--max-retries", "-1"],
                "error: --max-retries must be >= 0",
            ),
            (["simulate", "--ranks", "0"], "error: --ranks must be >= 1"),
            (
                ["simulate", "-n", "6", "--steps", "2"]
                + ["--faults", "kill:rank=1,step=1"],
                "error: invalid --faults plan: fault plan names rank(s) [1] "
                "outside a world of 1 rank(s)",
            ),
            (["simulate", "-n", "2", "--steps", "1"], "error: -n must be >= 3"),
            (["trace", "-n", "1"], "error: -n must be >= 3"),
        ],
    )
    def test_bad_arguments_exit_2(self, argv, message, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a relative sink or "D" lands here, if at all
        assert main(argv) == 2
        assert message in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


    def test_smallest_n_is_the_drivers(self):
        # the run core refuses exactly the sizes the driver cannot build
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        with pytest.raises(ValueError, match="minimum-image"):
            AdiabaticDriver(SimulationConfig(n_per_side=2))
        AdiabaticDriver(SimulationConfig(n_per_side=3))


class TestServiceCli:
    def test_submit_without_service_is_a_usage_error(self, tmp_path, capsys):
        sock = str(tmp_path / "missing.sock")
        assert main(["submit", "--socket", sock, "-n", "6"]) == 2
        assert "no service listening" in capsys.readouterr().out

    def test_jobs_without_service_is_a_usage_error(self, tmp_path, capsys):
        sock = str(tmp_path / "missing.sock")
        assert main(["jobs", "--socket", sock]) == 2
        assert "no service listening" in capsys.readouterr().out

    def test_dashboard_follow_rejects_bad_poll(self, tmp_path, capsys):
        events = str(tmp_path / "events.jsonl")
        assert main(["dashboard", events, "--follow", "--poll", "0"]) == 2
        assert "--poll must be positive" in capsys.readouterr().out
