"""Reference computations the kernel tests hold the product to: the
direct double loop over a leaf pair that every half-warp schedule and
variant must reproduce, the two pair functions it is run with, the
bracket-timer check against the executor's per-kernel ledger, and the
paper's list of hydro hotspot kernels."""

from __future__ import annotations

import numpy as np

from repro.hacc.sph.kernels_math import cubic_spline
from repro.kernels.halfwarp import HalfWarpResult, PairFunction, _lane_layout
from repro.machine.executor import DeviceExecutor
from repro.observability.tracing import TraceRecorder
from tests.observability.oracles import spans_named

#: the five hydro hotspots (Section 5's ">85% of offloaded time")
HOTSPOT_KERNELS = ("geometry", "corrections", "extras", "acceleration", "energy")


def reference_all_pairs(
    payload_a: np.ndarray, payload_b: np.ndarray, pair_fn: PairFunction
) -> HalfWarpResult:
    """Ground truth: direct double loop over all cross-leaf pairs.

    Evaluates ``pair_fn`` with single-lane arrays so any (correct)
    pair function works for both the scheduled and reference paths.
    """
    lanes, _n_fields, half = _lane_layout(payload_a, payload_b)
    size = 2 * half
    accum = np.zeros(size)
    for a in range(half):
        for b in range(half, size):
            own = lanes[:, [a, b]]
            other = lanes[:, [b, a]]
            contrib = pair_fn(own, other)
            accum[a] += contrib[0]
            accum[b] += contrib[1]
    return HalfWarpResult(leaf_a=accum[:half], leaf_b=accum[half:])


def density_pair_function(h: float) -> PairFunction:
    """SPH number-density contribution W(|dx|, h); fields = (x, y, z)."""

    def fn(own: np.ndarray, other: np.ndarray) -> np.ndarray:
        dx = own[:3] - other[:3]
        r = np.sqrt(np.einsum("fl,fl->l", dx, dx))
        return cubic_spline(r, np.full_like(r, h))

    return fn


def gravity_pair_function(softening: float) -> PairFunction:
    """Softened inverse-square magnitude; fields = (x, y, z, m)."""

    def fn(own: np.ndarray, other: np.ndarray) -> np.ndarray:
        dx = own[:3] - other[:3]
        r2 = np.einsum("fl,fl->l", dx, dx) + softening**2
        return other[3] / r2

    return fn


def validate_against_profiler(
    recorder: TraceRecorder,
    executor: DeviceExecutor,
    *,
    rel_tolerance: float = 1.0e-9,
) -> dict[str, float]:
    """Compare bracket-timer spans with the executor's per-kernel ledger.

    The paper validated CRK-HACC's ``MPI_Wtime()`` bracket timers
    against ``rocprof`` (Section 3.4.4); here the brackets are spans of
    a ``TraceRecorder(clock=executor.total_seconds)`` and the ledger is
    the profiler.  Returns the per-kernel relative differences; raises
    ``ValueError`` when a kernel's span total disagrees beyond
    tolerance.  Spans without a ledger entry bracket host work.
    """
    diffs: dict[str, float] = {}
    for name, profiled in executor.seconds_by_kernel().items():
        bracketed = sum(span.duration for span in spans_named(recorder, name))
        diffs[name] = abs(bracketed - profiled) / max(abs(profiled), 1e-300)
        if diffs[name] > rel_tolerance:
            raise ValueError(
                f"timer {name!r} disagrees with the profiler: "
                f"bracketed {bracketed:.6e}s vs profiled {profiled:.6e}s"
            )
    return diffs
