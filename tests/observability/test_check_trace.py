"""Tests for the trace validator tool (``tools/check_trace.py``)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.observability

TOOLS = Path(__file__).resolve().parents[2] / "tools"


def load_check_trace():
    """Import ``tools/check_trace.py`` as a module (it is a script)."""
    name = "tool_check_trace"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, TOOLS / "check_trace.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check():
    return load_check_trace()


def good_document():
    return {
        "traceEvents": [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "rank 0"},
            },
            {
                "name": "step 0",
                "cat": "step",
                "ph": "X",
                "ts": 0.0,
                "dur": 1000.0,
                "pid": 0,
                "tid": 0,
                "args": {"depth": 0, "path": "step 0"},
            },
            {
                "name": "fault:kill_rank",
                "cat": "fault",
                "ph": "i",
                "ts": 500.0,
                "pid": 0,
                "tid": 0,
                "s": "t",
                "args": {"rank": 0},
            },
        ],
        "displayTimeUnit": "ms",
    }


class TestValidateEvents:
    def test_good_document_passes(self, check):
        assert check.validate_events(good_document()) == []

    def test_top_level_must_be_object(self, check):
        assert check.validate_events([1, 2]) != []

    def test_missing_trace_events(self, check):
        assert check.validate_events({"foo": []}) == ["document: missing 'traceEvents' list"]

    def test_bad_display_time_unit(self, check):
        doc = good_document()
        doc["displayTimeUnit"] = "fortnights"
        assert any("displayTimeUnit" in p for p in check.validate_events(doc))

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda e: e.update(ph="Q"), "unsupported phase"),
            (lambda e: e.update(name=""), "empty 'name'"),
            (lambda e: e.update(pid="zero"), "'pid' must be an integer"),
            (lambda e: e.update(tid=None), "'tid' must be an integer"),
            (lambda e: e.pop("dur"), "needs numeric 'dur'"),
            (lambda e: e.update(ts=-1.0), "'ts' must be >= 0"),
            (lambda e: e.update(args=[1]), "'args' must be an object"),
        ],
    )
    def test_malformed_complete_event(self, check, mutate, fragment):
        doc = good_document()
        mutate(doc["traceEvents"][1])
        problems = check.validate_events(doc)
        assert any(fragment in p for p in problems), problems

    def test_instant_needs_scope(self, check):
        doc = good_document()
        del doc["traceEvents"][2]["s"]
        assert any("scope 's'" in p for p in check.validate_events(doc))

    def test_metadata_needs_args_name(self, check):
        doc = good_document()
        doc["traceEvents"][0]["args"] = {}
        assert any("args.name" in p for p in check.validate_events(doc))


class TestValidateFile:
    def test_good_file(self, check, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(good_document()))
        assert check.validate_file(path) == []

    def test_not_json(self, check, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("{this is not json")
        assert any("not valid JSON" in p for p in check.validate_file(path))

    def test_missing_file(self, check, tmp_path):
        assert any(
            "cannot read" in p for p in check.validate_file(tmp_path / "nope.json")
        )


class TestMain:
    def test_exit_zero_on_valid(self, check, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(good_document()))
        assert check.main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_nonzero_on_malformed(self, check, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert check.main([str(path)]) == 1
        assert "event #0" in capsys.readouterr().out

    def test_usage_without_arguments(self, check, capsys):
        assert check.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_recorder_output_validates(self, check, tmp_path):
        from repro.observability import TraceRecorder

        recorder = TraceRecorder()
        recorder.name_track(0, "rank 0")
        with recorder.span("step"):
            with recorder.span("upGeo"):
                pass
        recorder.instant("retry", category="resilience", attempt=1)
        path = recorder.write(tmp_path / "trace.json")
        assert check.main([str(path)]) == 0


class TestResilienceInstantSchema:
    """Degradation-ladder instants promise specific args; the checker
    holds them to it so dashboards can rely on the fields."""

    def instant(self, name, args):
        doc = good_document()
        doc["traceEvents"].append(
            {
                "name": name,
                "cat": "resilience",
                "ph": "i",
                "ts": 600.0,
                "pid": 0,
                "tid": 0,
                "s": "t",
                "args": args,
            }
        )
        return doc

    def test_wellformed_degradation_instants_pass(self, check):
        doc = self.instant("shrink", {"dead_ranks": [3], "survivors": [0, 1, 2]})
        doc["traceEvents"].append(
            dict(
                self.instant("buddy-restore", {"rank": 4, "owner": 3})[
                    "traceEvents"
                ][-1]
            )
        )
        doc["traceEvents"].append(
            dict(
                self.instant("degrade", {"action": "shrink", "step": 1})[
                    "traceEvents"
                ][-1]
            )
        )
        doc["traceEvents"].append(
            dict(self.instant("retry", {"attempt": 1})["traceEvents"][-1])
        )
        assert check.validate_events(doc) == []

    @pytest.mark.parametrize(
        "name, args, missing",
        [
            ("shrink", {"survivors": [0]}, "args.dead_ranks"),
            ("shrink", {"dead_ranks": [1]}, "args.survivors"),
            ("buddy-restore", {"owner": 3}, "args.rank"),
            ("degrade", {"step": 1}, "args.action"),
            ("retry", {}, "args.attempt"),
        ],
    )
    def test_missing_promised_arg_flagged(self, check, name, args, missing):
        problems = check.validate_events(self.instant(name, args))
        assert any(missing in p for p in problems), problems

    def test_missing_args_object_flagged(self, check):
        doc = self.instant("shrink", None)
        del doc["traceEvents"][-1]["args"]
        problems = check.validate_events(doc)
        assert any("args.dead_ranks" in p for p in problems)

    def test_degraded_run_trace_validates(self, check, tmp_path):
        """End-to-end: the trace written by an actual shrink recovery
        passes the schema, degradation instants included."""
        from repro.hacc.timestep import SimulationConfig
        from repro.observability import TraceRecorder
        from repro.resilience import FaultPlan, run_simulation

        recorder = TraceRecorder()
        result = run_simulation(
            SimulationConfig(n_per_side=6, n_steps=2),
            world_size=3,
            timeout=10.0,
            fault_plan=FaultPlan.parse("kill:rank=1,step=1"),
            degrade_policy="shrink",
            tracer=recorder,
        )
        assert result.degraded
        path = recorder.write(tmp_path / "degraded.json")
        assert check.validate_file(path) == []
        names = {e["name"] for e in json.loads(path.read_text())["traceEvents"]}
        assert "shrink" in names
        assert "degrade" in names
        assert "buddy-restore" in names


class TestCounterAndAlertSchema:
    """PR 7 telemetry: Perfetto counter tracks ("C" events) and health
    ``alert`` instants have schemas the checker enforces."""

    def counter(self, **overrides):
        doc = good_document()
        event = {
            "name": "sim.health.energy_drift",
            "cat": "health",
            "ph": "C",
            "ts": 700.0,
            "pid": 0,
            "tid": 0,
            "args": {"value": 0.01},
        }
        event.update(overrides)
        doc["traceEvents"].append(event)
        return doc

    def test_wellformed_counter_passes(self, check):
        assert check.validate_events(self.counter()) == []

    def test_counter_needs_numeric_ts(self, check):
        problems = check.validate_events(self.counter(ts="later"))
        assert any("numeric 'ts'" in p for p in problems)

    def test_counter_rejects_negative_ts(self, check):
        problems = check.validate_events(self.counter(ts=-3.0))
        assert any("'ts' must be >= 0" in p for p in problems)

    @pytest.mark.parametrize("args", [{}, {"value": "high"}, {"value": True}, None])
    def test_counter_needs_numeric_value(self, check, args):
        doc = self.counter(args=args)
        if args is None:
            del doc["traceEvents"][-1]["args"]
        problems = check.validate_events(doc)
        assert any("args.value" in p for p in problems), problems

    def alert(self, args):
        doc = good_document()
        doc["traceEvents"].append(
            {
                "name": "alert",
                "cat": "health",
                "ph": "i",
                "ts": 800.0,
                "pid": 0,
                "tid": 0,
                "s": "t",
                "args": args,
            }
        )
        return doc

    def test_wellformed_alert_passes(self, check):
        args = {
            "series": "sim.health.energy_drift",
            "step": 3,
            "severity": "fatal",
            "detector": "ewma-drift",
            "value": -0.12,
        }
        assert check.validate_events(self.alert(args)) == []

    @pytest.mark.parametrize("drop", ["series", "step", "severity", "detector"])
    def test_alert_missing_promised_arg_flagged(self, check, drop):
        args = {
            "series": "sim.health.energy_drift",
            "step": 3,
            "severity": "fatal",
            "detector": "ewma-drift",
        }
        del args[drop]
        problems = check.validate_events(self.alert(args))
        assert any(f"args.{drop}" in p for p in problems), problems

    def test_monitored_run_trace_validates(self, check, tmp_path):
        """End-to-end: a traced run with a health monitor attached
        writes counter tracks and (on a leak) an alert instant, and the
        whole trace passes the schema."""
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
        from repro.observability import TraceRecorder
        from repro.observability.health import default_monitor

        recorder = TraceRecorder()
        driver = AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=3))
        driver.tracer = recorder
        monitor = default_monitor(tracer=recorder)
        driver.health = monitor
        driver.run()
        # inject a leak-shaped observation so an alert instant is cut
        monitor.observe(
            "sim.health.energy_drift", step=99, value=-0.9
        )
        assert monitor.alerts
        path = recorder.write(tmp_path / "monitored.json")
        assert check.validate_file(path) == []
        document = json.loads(path.read_text())
        phases = {e["ph"] for e in document["traceEvents"]}
        assert "C" in phases
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "i"}
        assert "alert" in names
