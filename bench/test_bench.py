"""Tests of the benchmark itself; outside tier-1: ``python3 -m pytest bench -q``."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from layers import PER_LAYER_UNITS, TIMING_BACKEND, Instrumentation, TARGETS, _resolve
from spans import (
    Patches,
    Span,
    SpanTracer,
    children_by_parent,
    highest_supported_percentile,
    median,
    percentile,
    self_time,
)
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module", autouse=True)
def program_on_path():
    sys.path.insert(0, str(run.SOURCE))
    yield
    sys.path.remove(str(run.SOURCE))


# -- names ----------------------------------------------------------------
def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_names_are_the_names_the_code_prints():
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]
    for name in [*run.END_TO_END_UNITS, *PER_LAYER_UNITS, *WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert len(set(run.END_TO_END_UNITS) | set(PER_LAYER_UNITS)) == len(
        run.END_TO_END_UNITS
    ) + len(PER_LAYER_UNITS)


def test_bounds_and_directions_are_within_the_contract():
    for metric in BENCHMARK["end_to_end"]:
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_a_pass_prints_every_declared_metric_and_one_result_line(trace):
    """The cheapest real pass: one round of service_mix."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "service_mix",
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 32
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(section)
    printed = {
        words[0]: words[2]
        for words in map(str.split, lines)
        if len(words) >= 3 and words[0] in declared(section)
    }
    assert printed == declared(section)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only the benchmark's own files run.py exits non-zero."""
    (tmp_path / "bench").mkdir()
    for source in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hydro_fine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- span arithmetic --------------------------------------------------------
def make_span(name, start, end, parent=None):
    span = Span(name, start, parent, "t")
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_child_spans():
    step = make_span("step", 0.0, 10.0)
    a = make_span("a", 1.0, 4.0, step)
    b = make_span("b", 3.0, 6.0, step)      # overlaps a: [1, 6] is covered once
    c = make_span("c", 8.0, 12.0, step)     # clipped at the parent's end
    grandchild = make_span("g", 1.5, 2.0, a)
    children = children_by_parent([step, a, b, c, grandchild])
    assert self_time(step, children) == pytest.approx(10.0 - (5.0 + 2.0))
    assert self_time(a, children) == pytest.approx(3.0 - 0.5)
    assert self_time(grandchild, children) == pytest.approx(0.5)


def test_tracer_nests_spans_per_thread_and_carries_the_trace_id():
    ticks = iter(range(100))
    tracer = SpanTracer(clock=lambda: float(next(ticks)))
    tracer.default_trace_id = "step7"
    inner = tracer.wrap(lambda x: x + 1, "inner", after=lambda a, kw, r: {"result": r})
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    first, second = tracer.spans
    assert (first.name, second.name, second.parent) == ("outer", "inner", first)
    assert (first.start, second.start, second.end, first.end) == (0.0, 1.0, 2.0, 3.0)
    assert second.trace_id == "step7" and second.attrs == {"result": 2}
    assert tracer.current() is None


def test_percentiles_and_the_ten_samples_beyond_rule():
    values = [float(v) for v in range(1, 11)]
    assert median(values) == 5.5
    assert percentile(values, 80) == pytest.approx(8.2)
    assert percentile([], 50) == 0.0
    assert highest_supported_percentile(9) == 50
    assert highest_supported_percentile(49) == 50
    assert highest_supported_percentile(50) == 80
    assert highest_supported_percentile(100) == 90
    assert highest_supported_percentile(1000) == 99


# -- instrumentation comes off again ------------------------------------------
def current_callables():
    found = {}
    for _name, path, attr, _b, _a in TARGETS:
        found[(path, attr)] = vars(_resolve(path))[attr]
    return found


def test_instrumentation_is_removed_even_when_the_workload_raises():
    from repro import xp

    before = current_callables()
    backend = xp.get_backend().name
    with pytest.raises(RuntimeError, match="workload broke"):
        with Instrumentation(SpanTracer()) as instr:
            assert len(instr.patches) == len(TARGETS) and not instr.skipped
            assert xp.get_backend().name == TIMING_BACKEND
            assert all(current_callables()[key] is not fn for key, fn in before.items())
            raise RuntimeError("workload broke")
    assert current_callables() == before
    assert xp.get_backend().name == backend
    assert TIMING_BACKEND not in xp.registered_backends()


def test_timing_backend_times_ops_and_returns_what_the_inner_backend_returns():
    import numpy as np

    from repro import xp

    tracer = SpanTracer()
    with Instrumentation(tracer):
        kernel = tracer.open("kernel")
        out = xp.rowwise_dot(np.ones((4, 3)), np.ones((4, 3)))
        tracer.close(kernel)
    assert out.tolist() == [3.0] * 4
    assert [(op, parent) for op, _s, _e, parent in tracer.ops] == [("rowwise_dot", kernel)]


def test_patches_keep_classmethods_bound_and_restore_in_reverse():
    class Owner:
        @classmethod
        def make(cls):
            return cls.__name__

    original = vars(Owner)["make"]
    patches = Patches()
    patches.patch(Owner, "make", lambda fn: lambda cls: fn(cls) + "!")
    patches.patch(Owner, "make", lambda fn: lambda cls: fn(cls) + "?")
    assert Owner.make() == "Owner!?"
    patches.restore()
    assert vars(Owner)["make"] is original and len(patches) == 0


# -- compare.py -----------------------------------------------------------------
def test_compare_verdicts():
    assert compare.verdict([1.0, 1.01, 0.99], [1.0, 1.02, 1.0], "lower", 0.1) == "same"
    assert compare.verdict([1.0, 1.01, 0.99], [0.95, 0.96, 0.94], "lower", 0.1) == "same"
    assert compare.verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "lower", 0.1) == "worse"
    assert compare.verdict([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "lower", 0.1) == "better"
    assert compare.verdict([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "higher", 0.1) == "worse"
    assert compare.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "higher", 0.1) == "better"
    assert compare.verdict([1.0, 1.3, 0.8], [1.1, 0.9, 1.2], "lower", 0.1) == "unresolved"
    # a wide spread does not hide two sides that do not overlap
    assert compare.verdict([1.0, 1.3, 0.8], [2.0, 2.6, 1.7], "lower", 0.1) == "worse"
    assert compare.verdict([1.0], [1.05], "lower", 0.1) == "same"
    assert compare.verdict([1.0], [1.2], "lower", 0.1) == "worse"
