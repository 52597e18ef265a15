"""End-to-end observability: traced runs, rank tracks, CLI artefacts."""

import pytest

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.kernels.specs import TIMER_TO_KERNEL
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder
from tests.kernels.oracles import HOTSPOT_KERNELS

pytestmark = pytest.mark.observability

SMALL = SimulationConfig(n_per_side=6, n_steps=2)


def kernels_with_spans(tracer):
    """The hot-kernel spec names that have at least one kernel span."""
    return {
        TIMER_TO_KERNEL[s.name]
        for s in tracer.spans
        if s.category == "kernel" and s.name in TIMER_TO_KERNEL
    }


class TestTracedDriver:
    def test_steps_nest_all_five_hot_kernels(self):
        tracer = TraceRecorder()
        metrics = MetricsRegistry()
        driver = AdiabaticDriver(SMALL)
        driver.tracer = tracer
        driver.metrics = metrics
        driver.run()

        steps = [s for s in tracer.spans if s.category == "step"]
        assert len(steps) == SMALL.n_steps
        assert set(HOTSPOT_KERNELS) <= kernels_with_spans(tracer)
        # kernel spans nest inside their step span
        kernel_spans = [s for s in tracer.spans if s.category == "kernel"]
        assert kernel_spans
        for span in kernel_spans:
            assert span.depth == 1
            assert span.path.startswith("step ")

    def test_metrics_count_the_run(self):
        metrics = MetricsRegistry()
        driver = AdiabaticDriver(SMALL)
        driver.metrics = metrics
        driver.run()
        counters = metrics.snapshot()["counters"]
        assert counters["sim.steps"] == SMALL.n_steps
        assert counters["sim.kernel.launches"] == len(driver.trace.invocations)
        assert counters["sim.kernel.interactions"] > 0
        hist = metrics.snapshot()["histograms"]["sim.kernel.interactions_per_item"]
        assert hist["count"] > 0

    def test_untraced_run_unchanged(self):
        # observability off by default: no recorder, no overhead hooks
        driver = AdiabaticDriver(SMALL)
        assert driver.tracer is None and driver.metrics is None
        driver.run()  # must not raise


@pytest.mark.faults
class TestTracedWorld:
    def test_multirank_run_merges_per_rank_tracks(self):
        from repro.resilience import run_simulation

        tracer = TraceRecorder()
        metrics = MetricsRegistry()
        run_simulation(
            SMALL, world_size=3, timeout=60.0, tracer=tracer, metrics=metrics
        )
        # one track per rank, merged into one timeline
        assert {0, 1, 2} <= tracer.tracks()
        for rank in range(3):
            rank_steps = [
                s
                for s in tracer.spans
                if s.pid == rank and s.category == "step"
            ]
            assert len(rank_steps) == SMALL.n_steps
        # collectives traced on their rank's track
        mpi = [s for s in tracer.spans if s.category == "mpi"]
        assert {s.args["rank"] for s in mpi} == {0, 1, 2}
        counters = metrics.snapshot()["counters"]
        assert counters["mpi.collective.calls"] >= 3 * SMALL.n_steps

    def test_faulted_run_traces_fault_and_retry(self, tmp_path):
        from repro.resilience import run_simulation
        from repro.resilience.faults import FaultPlan, FaultSpec

        tracer = TraceRecorder()
        metrics = MetricsRegistry()
        plan = FaultPlan(faults=(FaultSpec(kind="kill_rank", rank=1, step=1),))
        result = run_simulation(
            SMALL,
            world_size=2,
            timeout=60.0,
            checkpoint_dir=tmp_path,
            fault_plan=plan,
            tracer=tracer,
            metrics=metrics,
        )
        assert result.recovered
        names = [e.name for e in tracer.instants]
        assert "fault:kill_rank" in names
        assert "rank-death" in names
        assert "retry" in names
        assert "checkpoint-write" in names
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.faults_injected"] == 1.0
        assert counters["resilience.retries"] == 1.0
        assert counters["resilience.rank_failures"] >= 1.0
        assert counters["checkpoint.bytes"] > 0.0
        # the retried steps still produce hot-kernel spans
        assert set(HOTSPOT_KERNELS) <= kernels_with_spans(tracer)


class TestCLI:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_simulate_trace_flags_write_artefacts(self, tmp_path, capsys):
        from repro.observability.export import chrome_trace, read_events
        from tests.observability.test_check_trace import load_check_trace

        events_path = tmp_path / "events.jsonl"
        code, out = self.run_cli(
            ["simulate", "-n", "6", "--steps", "2", "--events-out", str(events_path)],
            capsys,
        )
        assert code == 0
        assert "event log written" in out
        assert load_check_trace().validate_file(events_path) == []
        records = read_events(events_path)
        assert any(e["ph"] == "X" for e in chrome_trace(records)["traceEvents"])
        assert records[-1]["kind"] == "metrics"
        assert records[-1]["snapshot"]["counters"]["sim.steps"] == 2

    def test_trace_command_validates_and_covers_hot_kernels(self, tmp_path, capsys):
        from repro.observability.export import chrome_trace, read_events
        from tests.observability.test_check_trace import load_check_trace

        events_path = tmp_path / "events.jsonl"
        code, out = self.run_cli(
            [
                "trace",
                "-n", "6",
                "--steps", "2",
                "--device", "Aurora",
                "-o", str(events_path),
            ],
            capsys,
        )
        assert code == 0
        assert load_check_trace().validate_file(events_path) == []
        doc = chrome_trace(read_events(events_path))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        covered = {TIMER_TO_KERNEL[n] for n in names if n in TIMER_TO_KERNEL}
        assert set(HOTSPOT_KERNELS) <= covered
        # the device replay adds a simulated-device track
        assert any(e["pid"] >= 100 for e in doc["traceEvents"])

    def test_profile_command_prints_annotated_table(self, capsys):
        code, out = self.run_cli(["profile", "Frontier", "-n", "6"], capsys)
        assert code == 0
        assert "%roof" in out
        assert "upGeo" in out
