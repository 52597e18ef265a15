"""Tests for the event-log validator tool (``tools/check_trace.py``)."""

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


def good_log():
    """A small valid event log: header, a named track, a step span with
    a kernel inside it, and a fault instant."""
    return [
        {"kind": "header", "version": 2},
        {"kind": "track", "pid": 0, "name": "rank 0"},
        {
            "kind": "span",
            "name": "step 0",
            "category": "step",
            "start": 0.0,
            "duration": 1e-3,
            "pid": 0,
            "tid": 0,
            "depth": 0,
            "path": "step 0",
            "args": {},
        },
        {
            "kind": "instant",
            "name": "fault:kill_rank",
            "category": "fault",
            "ts": 5e-4,
            "pid": 0,
            "tid": 0,
            "args": {"rank": 0},
        },
    ]


def write_log(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestValidateEvents:
    def test_good_document_passes(self, check):
        assert check.validate_event_log(good_log()) == []

    def test_top_level_must_be_object(self, check):
        problems = check.validate_event_log([*good_log(), [1, 2]])
        assert problems == ["record #4: not an object"]

    def test_missing_trace_events(self, check):
        assert check.validate_event_log([]) == ["event log: empty"]

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda e: e.update(kind="Q"), "unknown kind"),
            (lambda e: e.update(name=""), "empty 'name'"),
            (lambda e: e.update(pid="zero"), "'pid' must be an integer"),
            (lambda e: e.update(tid=None), "'tid' must be an integer"),
            (lambda e: e.pop("duration"), "needs numeric 'duration'"),
            (lambda e: e.update(start=-1.0), "'start' must be >= 0"),
            (lambda e: e.update(args=[1]), "'args' must be an object"),
        ],
    )
    def test_malformed_complete_event(self, check, mutate, fragment):
        log = good_log()
        mutate(log[2])
        problems = check.validate_event_log(log)
        assert any(fragment in p for p in problems), problems

    def test_instant_rejects_negative_ts(self, check):
        log = good_log()
        log[3]["ts"] = -1e-6
        assert any("'ts' must be >= 0" in p for p in check.validate_event_log(log))

    def test_track_needs_name(self, check):
        log = good_log()
        del log[1]["name"]
        assert any("'name'" in p for p in check.validate_event_log(log))


class TestFraming:
    """The header opens a log; a metrics snapshot, when present, ends it."""

    def test_header_must_come_first(self, check):
        log = good_log()
        log.insert(0, log.pop(1))
        problems = check.validate_event_log(log)
        assert any("first record must be the header" in p for p in problems)
        assert any("duplicate header" in p for p in problems)

    def test_metrics_snapshot_is_terminal(self, check):
        log = [*good_log(), {"kind": "metrics", "snapshot": {}}]
        assert check.validate_event_log(log) == []
        log.append(good_log()[3])
        problems = check.validate_event_log(log)
        assert any("after the terminal 'metrics'" in p for p in problems)


class TestValidateFile:
    def test_good_file(self, check, tmp_path):
        path = write_log(tmp_path / "events.jsonl", good_log())
        assert check.validate_file(path) == []

    def test_not_json(self, check, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "header", "version": 2}\n{this is not json\n')
        assert check.validate_file(path)[0].startswith("line 2: not valid JSON")

    def test_missing_file(self, check, tmp_path):
        assert any(
            "cannot read" in p for p in check.validate_file(tmp_path / "nope.jsonl")
        )


class TestMain:
    def test_exit_zero_on_valid(self, check, tmp_path, capsys):
        path = write_log(tmp_path / "events.jsonl", good_log())
        assert check.main([str(path)]) == 0
        assert "OK (4 records)" in capsys.readouterr().out

    def test_exit_nonzero_on_malformed(self, check, tmp_path, capsys):
        path = write_log(tmp_path / "bad.jsonl", [{"kind": "span"}])
        assert check.main([str(path)]) == 1
        assert "record #0" in capsys.readouterr().out

    def test_usage_without_arguments(self, check, capsys):
        assert check.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_recorder_output_validates(self, check, tmp_path):
        from repro.observability.export import write_event_log
        from repro.observability.tracing import TraceRecorder

        recorder = TraceRecorder()
        recorder.name_track(0, "rank 0")
        with recorder.span("step"):
            with recorder.span("upGeo"):
                pass
        recorder.instant("retry", category="resilience", attempt=1)
        path = write_event_log(tmp_path / "events.jsonl", tracer=recorder)
        assert check.main([str(path)]) == 0


class TestResilienceInstantSchema:
    """Degradation-ladder instants promise specific args; the checker
    holds them to it so dashboards can rely on the fields."""

    def instant(self, name, args):
        return {
            "kind": "instant",
            "name": name,
            "category": "resilience",
            "ts": 6e-4,
            "pid": 0,
            "tid": 0,
            "args": args,
        }

    def test_wellformed_degradation_instants_pass(self, check):
        log = good_log() + [
            self.instant("shrink", {"dead_ranks": [3], "survivors": [0, 1, 2]}),
            self.instant("degrade", {"action": "shrink", "step": 1}),
            self.instant("retry", {"attempt": 1}),
        ]
        assert check.validate_event_log(log) == []

    @pytest.mark.parametrize(
        "name, args, missing",
        [
            ("shrink", {"survivors": [0]}, "args.dead_ranks"),
            ("shrink", {"dead_ranks": [1]}, "args.survivors"),
            ("degrade", {"step": 1}, "args.action"),
            ("retry", {}, "args.attempt"),
        ],
    )
    def test_missing_promised_arg_flagged(self, check, name, args, missing):
        problems = check.validate_event_log([*good_log(), self.instant(name, args)])
        assert any(missing in p for p in problems), problems

    def test_missing_args_object_flagged(self, check):
        record = self.instant("shrink", None)
        del record["args"]
        problems = check.validate_event_log([*good_log(), record])
        assert any("args.dead_ranks" in p for p in problems)

    def test_degraded_run_trace_validates(self, check, tmp_path):
        """End-to-end: the log written by an actual shrink recovery
        passes the schema, degradation instants included."""
        from repro.hacc.timestep import SimulationConfig
        from repro.observability.export import read_events, write_event_log
        from repro.observability.tracing import TraceRecorder
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
        path = write_event_log(tmp_path / "degraded.jsonl", tracer=recorder)
        assert check.validate_file(path) == []
        names = {e["name"] for e in read_events(path) if e["kind"] == "instant"}
        assert "shrink" in names
        assert "degrade" in names


class TestCounterAndAlertSchema:
    """Counter samples (Perfetto counter tracks of the health series)
    and health ``alert`` instants have schemas the checker enforces."""

    def counter(self, **overrides):
        record = {
            "kind": "counter",
            "name": "sim.health.energy_drift",
            "category": "health",
            "ts": 7e-4,
            "pid": 0,
            "tid": 0,
            "value": 0.01,
        }
        record.update(overrides)
        return [*good_log(), record]

    def test_wellformed_counter_passes(self, check):
        assert check.validate_event_log(self.counter()) == []

    def test_counter_needs_numeric_ts(self, check):
        problems = check.validate_event_log(self.counter(ts="later"))
        assert any("numeric 'ts'" in p for p in problems)

    def test_counter_rejects_negative_ts(self, check):
        problems = check.validate_event_log(self.counter(ts=-3.0))
        assert any("'ts' must be >= 0" in p for p in problems)

    @pytest.mark.parametrize("value", ["high", True, None])
    def test_counter_needs_numeric_value(self, check, value):
        problems = check.validate_event_log(self.counter(value=value))
        assert any("numeric 'value'" in p for p in problems), problems

    def alert(self, args):
        return [
            *good_log(),
            {
                "kind": "instant",
                "name": "alert",
                "category": "health",
                "ts": 8e-4,
                "pid": 0,
                "tid": 0,
                "args": args,
            },
        ]

    def test_wellformed_alert_passes(self, check):
        args = {
            "series": "sim.health.energy_drift",
            "step": 3,
            "severity": "fatal",
            "detector": "ewma-drift",
            "value": -0.12,
        }
        assert check.validate_event_log(self.alert(args)) == []
        # the log's own alert record carries the same promised fields
        assert check.validate_event_log([*good_log(), {"kind": "alert", **args}]) == []

    @pytest.mark.parametrize("drop", ["series", "step", "severity", "detector"])
    def test_alert_missing_promised_arg_flagged(self, check, drop):
        args = {
            "series": "sim.health.energy_drift",
            "step": 3,
            "severity": "fatal",
            "detector": "ewma-drift",
        }
        del args[drop]
        problems = check.validate_event_log(self.alert(args))
        assert any(f"args.{drop}" in p for p in problems), problems
        problems = check.validate_event_log([*good_log(), {"kind": "alert", **args}])
        assert any(repr(drop) in p for p in problems), problems

    def test_monitored_run_trace_validates(self, check, tmp_path):
        """End-to-end: a traced run with a health monitor attached logs
        counter samples and (on a leak) an alert instant, and the whole
        log passes the schema."""
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
        from repro.observability.export import read_events, write_event_log
        from repro.observability.health import default_monitor
        from repro.observability.tracing import TraceRecorder

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
        path = write_event_log(
            tmp_path / "monitored.jsonl", tracer=recorder, monitor=monitor
        )
        assert check.validate_file(path) == []
        records = read_events(path)
        kinds = {r["kind"] for r in records}
        assert {"counter", "alert", "series"} <= kinds
        names = {r["name"] for r in records if r["kind"] == "instant"}
        assert "alert" in names
