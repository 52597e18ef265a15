"""The layer boundaries the traced pass records, and the per-layer metrics.

``Instrumentation`` wraps each layer's public callables in spans and
routes ``repro.xp`` through a timing backend; ``layer_metrics`` turns
the recorded spans into the ``per_layer`` metrics of ``BENCHMARK.json``.
A target a later refactor renamed is skipped with a note on stderr and
its metrics read 0: per-layer metrics carry no bound, and the measured
pass never depends on this file.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

from spans import (
    Patches,
    Span,
    SpanTracer,
    children_by_parent,
    descendants,
    enclosing,
    median,
    self_time,
)

TIMING_BACKEND = "bench_timing"
STEP = "timestep.step"
#: array ops reported by name (the rest only count towards xp.op_s)
NAMED_OPS = ("rowwise_dot", "segment_sum", "bincount", "einsum", "repeat")
#: computed bytes per directed pair of one short-range force evaluation:
#: two int64 indices, two gathered positions, d, r2, r, factor, m_j, f
#: and the (pair, 3) contribution, all float64 — from array sizes, so
#: cache misses are not in it
SHORT_RANGE_BYTES_PER_PAIR = 2 * 8 + 2 * 24 + 24 + 5 * 8 + 24
SHORT_RANGE_BYTES_PER_PARTICLE = 24
COLLECTIVES = (
    "allgather", "barrier", "agree", "bcast", "gather", "allreduce", "reduce", "alltoall",
)


def _ctx_pairs(args, _kwargs) -> dict[str, Any]:
    return {"pairs": args[0].n_pairs}


#: (span name, "module" or "module:Class", attribute, before, after) with
#: before(args, kwargs) and after(args, kwargs, result) filling the attrs
TARGETS: list[tuple[str, str, str, Callable | None, Callable | None]] = [
    ("ic.build", "repro.hacc.timestep", "zeldovich_ics", None, None),
    ("ic.build", "repro.service.workers", "zeldovich_ics", None, None),
    ("pm.accel", "repro.hacc.pm:PMSolver", "accelerations", None, None),
    ("neighbors.cache_get", "repro.hacc.neighbors:CellListCache", "get", None, None),
    ("neighbors.cell_list_build", "repro.hacc.neighbors:CellList", "build", None, None),
    (
        "neighbors.grav_pair_search",
        "repro.hacc.short_range:ShortRangeSolver",
        "pair_list",
        lambda a, kw: {"use_cells": getattr(kw.get("cell_list"), "use_cells", None)},
        lambda a, kw, pairs: {"pairs": len(pairs[0])},
    ),
    (
        "short_range.force",
        "repro.hacc.short_range:ShortRangeSolver",
        "accelerations",
        None,
        lambda a, kw, acc: {"n": len(acc)},
    ),
    (
        "sph.pair_context",
        "repro.hacc.sph.pairs:PairContext",
        "build",
        None,
        lambda a, kw, ctx: {"pairs": ctx.n_pairs, "mean_neighbors": ctx.mean_neighbors()},
    ),
    ("sph.upGeo", "repro.hacc.timestep", "compute_geometry", _ctx_pairs, None),
    ("sph.upCor", "repro.hacc.timestep", "compute_corrections", _ctx_pairs, None),
    ("sph.upBarEx", "repro.hacc.timestep", "compute_extras", _ctx_pairs, None),
    ("sph.upBarAc", "repro.hacc.timestep", "compute_acceleration", _ctx_pairs, None),
    ("sph.upBarDu", "repro.hacc.timestep", "compute_energy_rate", _ctx_pairs, None),
    (
        STEP,
        "repro.hacc.timestep:AdiabaticDriver",
        "step",
        lambda a, kw: {"step": a[0].step_index},
        lambda a, kw, diag: {"completed": True},
    ),
    (
        "resilience.checkpoint_capture",
        "repro.resilience.restart:SimulationCheckpoint",
        "capture",
        None,
        None,
    ),
    (
        "resilience.checkpoint_save",
        "repro.resilience.restart:SimulationCheckpoint",
        "save",
        None,
        lambda a, kw, path: {"bytes": path.stat().st_size},
    ),
    (
        "resilience.checkpoint_load",
        "repro.resilience.restart:SimulationCheckpoint",
        "load",
        None,
        None,
    ),
    ("service.spec_hash", "repro.service.jobs:JobSpec", "content_hash", None, None),
] + [
    (
        "mpi_sim.collective",
        "repro.hacc.mpi_sim:SimComm",
        name,
        lambda a, kw: {"rank": a[0].global_rank},
        None,
    )
    for name in COLLECTIVES
]


def _resolve(path: str) -> Any:
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Instrumentation:
    """Spans around the layers plus the timing backend, and their removal."""

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self.patches = Patches()
        self.skipped: list[str] = []
        self._previous_backend: str | None = None

    def install(self) -> "Instrumentation":
        try:
            for name, path, attr, before, after in TARGETS:
                try:
                    self.patches.patch(
                        _resolve(path),
                        attr,
                        lambda fn, n=name, b=before, a=after: self.tracer.wrap(fn, n, b, a),
                    )
                except (ImportError, AttributeError, KeyError):
                    self.skipped.append(f"{path}.{attr}")
            self._install_backend()
        except BaseException:
            self.remove()
            raise
        for target in self.skipped:
            print(f"bench: no such callable, layer not traced: {target}", file=sys.stderr)
        return self

    def _install_backend(self) -> None:
        """Register a backend that times every op and hands it to the
        one that was active, then make it the active one."""
        from repro import xp
        from repro.xp.base import OP_NAMES, ArrayBackend

        inner = xp.get_backend()
        tracer = self.tracer

        def timed(op: str) -> Callable:
            fn = getattr(inner, op)
            clock, ops, current = tracer.clock, tracer.ops, tracer.current

            def call(_self, *args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ops.append((op, start, clock(), current()))

            return call

        namespace = {op: timed(op) for op in OP_NAMES}
        namespace.update(
            name=TIMING_BACKEND,
            requires=None,
            summary=f"times each op, then calls the {inner.name!r} backend",
        )
        self._previous_backend = inner.name
        xp.register_backend(type("TimingBackend", (ArrayBackend,), namespace))
        xp.set_backend(TIMING_BACKEND)

    def remove(self) -> None:
        self.patches.restore()
        if self._previous_backend is not None:
            from repro import xp

            xp.set_backend(self._previous_backend)
            self._previous_backend = None
            # xp has no public deregistration; leave no trace in its tables
            for table in ("_REGISTRY", "_INSTANCES"):
                getattr(xp, table, {}).pop(TIMING_BACKEND, None)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


# -- per-layer metrics ----------------------------------------------------
#: name -> unit, in the order they are printed; ``BENCHMARK.json`` lists the same
PER_LAYER_UNITS: dict[str, str] = {
    "ic.build_s": "s",
    "pm.accel_s": "s",
    "pm.calls": "count",
    "neighbors.grav_pair_search_s": "s",
    "neighbors.grav_pairs": "count",
    "neighbors.cell_path_frac": "ratio",
    "neighbors.cache_get_s": "s",
    "neighbors.cell_list_builds": "count",
    "neighbors.cell_list_hits": "count",
    "short_range.force_s": "s",
    "short_range.pairs_per_s": "1/s",
    "short_range.bytes_computed": "B",
    "sph.pair_context_s": "s",
    "sph.upGeo_s": "s",
    "sph.upCor_s": "s",
    "sph.upBarEx_s": "s",
    "sph.upBarAc_s": "s",
    "sph.upBarDu_s": "s",
    "sph.pairs": "count",
    "sph.mean_neighbors": "count",
    "sph.interactions_per_s": "1/s",
    "xp.op_s": "s",
    "xp.op_calls": "count",
    "xp.op_frac": "ratio",
    **{f"xp.{op}_s": "s" for op in NAMED_OPS},
    "timestep.first_step_s": "s",
    "timestep.step_max_s": "s",
    "timestep.self_s": "s",
    "timestep.closure_frac": "ratio",
    "resilience.checkpoint_capture_s": "s",
    "resilience.checkpoint_save_s": "s",
    "resilience.checkpoint_load_s": "s",
    "resilience.checkpoint_bytes": "B",
    "resilience.checkpoints_written": "count",
    "resilience.attempts": "count",
    "resilience.steps_replayed": "count",
    "resilience.overhead_frac": "ratio",
    "mpi_sim.collective_calls": "count",
    "mpi_sim.collective_wait_s": "s",
    "service.submit_s": "s",
    "service.spec_hash_s": "s",
    "service.hit_latency_p50_s": "s",
    "service.queue_wait_s": "s",
    "service.executed_jobs": "count",
    "service.cache_hit_frac": "ratio",
    "service.coalesced": "count",
    "service.cache_bytes": "B",
    "service.worker_busy_frac": "ratio",
    "observability.trace_overhead_frac": "ratio",
}

SPH_KERNELS = ("sph.upGeo", "sph.upCor", "sph.upBarEx", "sph.upBarAc", "sph.upBarDu")


def _step_rows(tracer: SpanTracer) -> list[dict[str, Any]]:
    """One row of sums and counts per completed ``AdiabaticDriver.step``."""
    children = children_by_parent(tracer.spans)
    ops_by_step: dict[int, list[tuple[str, float]]] = {}
    for op, start, end, parent in tracer.ops:
        step = enclosing(parent, STEP)
        if step is not None:
            ops_by_step.setdefault(id(step), []).append((op, end - start))

    rows = []
    for step in tracer.spans:
        if step.name != STEP or not step.attrs.get("completed"):
            continue
        below: dict[str, list[Span]] = {}
        for span in descendants(step, children):
            below.setdefault(span.name, []).append(span)

        def seconds(name: str) -> float:
            return sum(s.duration for s in below.get(name, ()))

        forces = below.get("short_range.force", [])
        # the force's own searches; interaction_count repeats them as memo hits
        searches = [
            s
            for s in below.get("neighbors.grav_pair_search", ())
            if s.parent.name == "short_range.force"
        ]
        contexts = below.get("sph.pair_context", [])
        kernels = [s for name in SPH_KERNELS for s in below.get(name, ())]
        cache_gets = below.get("neighbors.cache_get", [])
        builds = [
            s
            for s in below.get("neighbors.cell_list_build", ())
            if s.parent.name == "neighbors.cache_get"
        ]
        ops = ops_by_step.get(id(step), [])
        own = self_time(step, children)
        grav_pairs = sum(s.attrs["pairs"] for s in searches)
        force_s = sum(self_time(s, children) for s in forces)
        kernel_s = sum(s.duration for s in kernels)
        op_s = sum(d for _op, d in ops)
        row = {
            "first": step.attrs["step"] == 0,
            "wall": step.duration,
            "cell_flags": [
                s.attrs["use_cells"] for s in searches if s.attrs["use_cells"] is not None
            ],
            "builds": len(builds),
            "hits": len(cache_gets) - len(builds),
            "timestep.self_s": own,
            "timestep.closure_frac": 1.0 - own / step.duration,
            "pm.accel_s": seconds("pm.accel"),
            "pm.calls": len(below.get("pm.accel", ())),
            "neighbors.grav_pair_search_s": seconds("neighbors.grav_pair_search"),
            "neighbors.grav_pairs": grav_pairs,
            "neighbors.cache_get_s": seconds("neighbors.cache_get"),
            "short_range.force_s": force_s,
            "short_range.pairs_per_s": grav_pairs / force_s if force_s > 0 else 0.0,
            "short_range.bytes_computed": SHORT_RANGE_BYTES_PER_PAIR * grav_pairs
            + SHORT_RANGE_BYTES_PER_PARTICLE * sum(s.attrs["n"] for s in forces),
            "sph.pair_context_s": seconds("sph.pair_context"),
            "sph.pairs": sum(s.attrs["pairs"] for s in contexts),
            "sph.mean_neighbors": median([s.attrs["mean_neighbors"] for s in contexts]),
            "sph.interactions_per_s": (
                sum(s.attrs["pairs"] for s in kernels) / kernel_s if kernel_s > 0 else 0.0
            ),
            "xp.op_s": op_s,
            "xp.op_calls": len(ops),
            "xp.op_frac": op_s / step.duration,
        }
        for kernel in SPH_KERNELS:
            row[f"{kernel}_s"] = seconds(kernel)
        for op in NAMED_OPS:
            row[f"xp.{op}_s"] = sum(d for name, d in ops if name == op)
        rows.append(row)
    return rows


def layer_metrics(tracer: SpanTracer, extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never called reads 0.

    Per-step values are medians over the completed steps that are not
    the first of their driver; per-run values (checkpoints, collectives)
    are medians over runs, told apart by trace id.  ``extras`` are the
    values only the workload knows (client-side timings, attempts); its
    ``units`` is the number of runs or submissions the spans cover and
    ``world_steps`` the step calls one fault-free run would make.
    """
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    rows = _step_rows(tracer)
    steady = [r for r in rows if not r["first"]]
    if steady:
        for key in out.keys() & steady[0].keys():
            out[key] = median([r[key] for r in steady])
        out["timestep.step_max_s"] = max(r["wall"] for r in steady)
        flags = [flag for r in steady for flag in r["cell_flags"]]
        out["neighbors.cell_path_frac"] = sum(flags) / len(flags) if flags else 0.0
        out["neighbors.cell_list_builds"] = sum(r["builds"] for r in steady) / len(steady)
        out["neighbors.cell_list_hits"] = sum(r["hits"] for r in steady) / len(steady)
    out["timestep.first_step_s"] = median([r["wall"] for r in rows if r["first"]])

    named: dict[str, list[Span]] = {}
    for span in tracer.spans:
        named.setdefault(span.name, []).append(span)
    out["ic.build_s"] = median([s.duration for s in named.get("ic.build", ())])
    units = extras.get("units", 0)
    if units:
        out["service.spec_hash_s"] = (
            sum(s.duration for s in named.get("service.spec_hash", ())) / units
        )

    runs: dict[Any, list[Span]] = {}
    for span in tracer.spans:
        if span.name.startswith(("resilience.", "mpi_sim.")) or span.name == STEP:
            runs.setdefault(span.trace_id, []).append(span)
    runs = {k: v for k, v in runs.items() if any(s.name != STEP for s in v)}

    def per_run(name: str, value: Callable[[list[Span]], float]) -> float:
        return median(
            [value([s for s in spans if s.name == name]) for spans in runs.values()]
        )

    def total_seconds(spans: list[Span]) -> float:
        return sum(s.duration for s in spans)

    if runs:
        for part in ("capture", "save", "load"):
            out[f"resilience.checkpoint_{part}_s"] = per_run(
                f"resilience.checkpoint_{part}", total_seconds
            )
        written = [s for s in named.get("resilience.checkpoint_save", ()) if "bytes" in s.attrs]
        out["resilience.checkpoint_bytes"] = median([s.attrs["bytes"] for s in written])
        out["resilience.checkpoints_written"] = per_run(
            "resilience.checkpoint_save", lambda spans: sum("bytes" in s.attrs for s in spans)
        )

        def lead(spans: list[Span]) -> list[Span]:
            return [s for s in spans if s.parent is None and s.attrs["rank"] == 0]

        out["mpi_sim.collective_calls"] = per_run("mpi_sim.collective", lambda s: len(lead(s)))
        out["mpi_sim.collective_wait_s"] = per_run(
            "mpi_sim.collective", lambda s: total_seconds(lead(s))
        )
        # step calls on every rank, beyond what a fault-free run makes
        out["resilience.steps_replayed"] = per_run(STEP, len) - extras.get("world_steps", 0)

    for key in out.keys() & extras.keys():
        out[key] = extras[key]
    return out
