"""Tests for the span recorder and the Chrome-trace conversion of its log."""

import json
import threading

import pytest

from repro.observability.export import (
    chrome_trace,
    iter_events,
    read_events,
    write_event_log,
)
from repro.observability.tracing import DEFAULT_TRACK, TraceRecorder, maybe_span
from tests.observability.oracles import spans_named

pytestmark = pytest.mark.observability


class FakeClock:
    """A monotonic clock the tests advance by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def recorder(clock):
    return TraceRecorder(clock=clock)


class TestSpanNesting:
    def test_nested_spans_record_depth_and_path(self, recorder, clock):
        with recorder.span("step"):
            clock.advance(1.0)
            with recorder.span("kernel"):
                clock.advance(0.5)
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["step"].depth == 0
        assert by_name["step"].path == "step"
        assert by_name["kernel"].depth == 1
        assert by_name["kernel"].path == "step/kernel"

    def test_inner_span_closes_first_but_timestamps_order(self, recorder, clock):
        with recorder.span("outer"):
            clock.advance(1.0)
            with recorder.span("inner"):
                clock.advance(2.0)
            clock.advance(1.0)
        inner, outer = spans_named(recorder, "inner")[0], spans_named(recorder, "outer")[0]
        # the inner span is recorded first (it closes first) ...
        assert [s.name for s in recorder.spans] == ["inner", "outer"]
        # ... but the timeline nests it inside the outer span
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.duration == pytest.approx(4.0)
        assert inner.duration == pytest.approx(2.0)

    def test_siblings_share_depth_and_parent_path(self, recorder, clock):
        with recorder.span("step"):
            with recorder.span("a"):
                clock.advance(0.1)
            with recorder.span("b"):
                clock.advance(0.1)
        a, b = spans_named(recorder, "a")[0], spans_named(recorder, "b")[0]
        assert a.depth == b.depth == 1
        assert a.path == "step/a"
        assert b.path == "step/b"
        assert a.end <= b.start

    def test_span_survives_body_exception(self, recorder, clock):
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                clock.advance(1.0)
                raise RuntimeError("kernel fault")
        (span,) = spans_named(recorder, "doomed")
        assert span.duration == pytest.approx(1.0)

    def test_span_args_recorded(self, recorder):
        with recorder.span("step", category="step", step=3):
            pass
        (span,) = recorder.spans
        assert span.category == "step"
        assert span.args == {"step": 3}

    def test_maybe_span_none_recorder_is_noop(self, recorder):
        with maybe_span(None, "x"):
            pass
        with maybe_span(recorder, "y"):
            pass
        assert [s.name for s in recorder.spans] == ["y"]


class TestRawSpansAndInstants:
    def test_add_span_explicit_timeline(self, recorder):
        span = recorder.add_span("k", begin=2.0, end=3.5, pid=7, tid=1)
        assert span.start == 2.0
        assert span.duration == pytest.approx(1.5)
        assert span.pid == 7 and span.tid == 1

    def test_add_span_rejects_negative_duration(self, recorder):
        with pytest.raises(ValueError, match="ends before it begins"):
            recorder.add_span("k", begin=2.0, end=1.0)

    def test_instant_records_timestamp_and_args(self, recorder, clock):
        clock.advance(4.0)
        event = recorder.instant("fault:kill_rank", category="fault", rank=3)
        assert event.ts == pytest.approx(4.0)
        assert event.category == "fault"
        assert event.args == {"rank": 3}


class TestTracks:
    def test_default_track(self, recorder):
        with recorder.span("x"):
            pass
        assert recorder.spans[0].pid == DEFAULT_TRACK

    def test_rank_threads_get_their_own_tracks(self, recorder):
        def rank_fn(rank):
            with recorder.track(rank, name=f"rank {rank}"):
                with recorder.span(f"step-r{rank}"):
                    pass

        threads = [
            threading.Thread(target=rank_fn, args=(r,)) for r in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.tracks() == {0, 1, 2}
        # each thread got a distinct tid lane
        assert len({(s.pid, s.tid) for s in recorder.spans}) == 3

    def test_track_restores_previous_pid(self, recorder):
        with recorder.track(5):
            pass
        with recorder.span("after"):
            pass
        assert recorder.spans[0].pid == DEFAULT_TRACK


def chrome_events(recorder):
    """The recorder's timeline through its event log's Chrome conversion."""
    return chrome_trace(iter_events(tracer=recorder))["traceEvents"]


class TestChromeExport:
    def test_export_is_schema_valid(self, recorder, clock, tmp_path):
        from tests.observability.test_check_trace import load_check_trace

        recorder.name_track(0, "rank 0")
        with recorder.span("step", category="step"):
            clock.advance(1.0)
            with recorder.span("upGeo", category="kernel"):
                clock.advance(0.5)
        recorder.instant("fault", category="fault", rank=0)
        path = write_event_log(tmp_path / "events.jsonl", tracer=recorder)
        check = load_check_trace()
        assert check.validate_file(path) == []

    def test_export_round_trips_through_json(self, recorder, clock, tmp_path):
        with recorder.span("step"):
            clock.advance(0.25)
        path = write_event_log(tmp_path / "events.jsonl", tracer=recorder)
        doc = json.loads(json.dumps(chrome_trace(read_events(path))))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        (x,) = [e for e in events if e["ph"] == "X"]
        assert x["name"] == "step"
        assert x["ts"] == pytest.approx(0.0)
        assert x["dur"] == pytest.approx(0.25e6)  # microseconds
        assert isinstance(x["pid"], int) and isinstance(x["tid"], int)
        assert x["args"]["path"] == "step"

    def test_named_tracks_export_metadata_events(self, recorder):
        recorder.name_track(1, "rank 1")
        recorder.add_span("k", begin=0.0, end=1.0, pid=1)
        meta = [e for e in chrome_events(recorder) if e["ph"] == "M"]
        assert meta == [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "rank 1"},
            }
        ]

    def test_instants_export_with_scope(self, recorder):
        recorder.instant("fault", ts=1.0)
        (event,) = [e for e in chrome_events(recorder) if e["ph"] == "i"]
        assert event["s"] == "t"
        assert event["ts"] == pytest.approx(1e6)


class TestFlameSummary:
    def test_self_time_subtracts_children(self, recorder, clock):
        with recorder.span("step"):
            clock.advance(1.0)
            with recorder.span("kernel"):
                clock.advance(3.0)
        text = recorder.flame_summary()
        lines = text.splitlines()
        # hottest total first: step (4s) before step/kernel (3s)
        assert lines[1].startswith("step ")
        assert lines[2].startswith("step/kernel")
        total_s, self_s = lines[1].split()[-2:]
        assert float(total_s) == pytest.approx(4.0)
        assert float(self_s) == pytest.approx(1.0)  # 4s minus the 3s child
        kernel_total, kernel_self = lines[2].split()[-2:]
        assert float(kernel_total) == float(kernel_self) == pytest.approx(3.0)

    def test_empty_recorder(self, recorder):
        assert "no spans" in recorder.flame_summary()
