"""The array-op contract of the hot path and its reference runtime.

The physics modules are written against a fixed surface of
data-parallel primitives (:data:`OP_NAMES`: creation, elementwise math,
sorting, contractions, segmented reductions, FFTs) and call them as
``xp.zeros`` / ``xp.segment_sum`` / ``xp.einsum``.  :class:`ArrayBackend`
names that surface and *is* its one runtime, ``numpy``: every op is the
literal NumPy call, so float64 results are bit-identical to code that
calls NumPy directly.  A subclass overrides ops and inherits the rest;
the use this repository has for that is instrumentation (a backend that
times or counts each op and delegates).

The data contract is narrow: **ops take NumPy arrays and return NumPy
arrays**, and an op must not silently upcast (float32 in means float32
out) unless its docstring says otherwise (``bincount`` accumulates in
float64, NumPy's own behaviour).
"""

from __future__ import annotations

import numpy as np

#: the op surface; the module namespace of :mod:`repro.xp` exposes
#: exactly these names, each with at least one hot-path call site
OP_NAMES = (
    # creation / conversion
    "ensure_float",
    "zeros",
    "zeros_like",
    "empty",
    "arange",
    "eye",
    # shape / selection
    "concatenate",
    "take",
    "where",
    # elementwise math
    "sqrt",
    "cbrt",
    "abs",
    "exp",
    "maximum",
    "isfinite",
    # reductions
    "max",
    "any",
    "bincount",
    # sorting / search
    "argsort",
    "flatnonzero",
    # contractions / linear algebra
    "einsum",
    "rowwise_dot",
    "trace",
    "solve",
    # segmented reduction (the scatter primitive of the pair pipeline)
    "segment_sum",
    # spectral (the PM Poisson solve)
    "rfftn",
    "irfftn",
)


class ArrayBackend:
    """The reference runtime: every op of the surface as plain NumPy."""

    #: registry key; a subclass must set its own
    name = "numpy"

    # -- creation / conversion -----------------------------------------
    def ensure_float(self, x):
        """As an array, in a floating dtype, preserving float32/float64.

        Non-float inputs (ints, lists) convert to float64; float inputs
        keep their precision -- the dtype-fidelity entry point the hot
        path uses instead of a blanket ``asarray(x, float64)``.
        """
        a = np.asarray(x)
        if a.dtype.kind == "f":
            return a
        return a.astype(np.float64)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    def zeros_like(self, x):
        return np.zeros_like(x)

    def empty(self, shape, dtype=None):
        return np.empty(shape, dtype=dtype)

    def arange(self, n, dtype=None):
        return np.arange(n, dtype=dtype)

    def eye(self, n, dtype=None):
        return np.eye(n, dtype=dtype)

    # -- shape / selection ---------------------------------------------
    def concatenate(self, arrays, axis=0):
        return np.concatenate(arrays, axis=axis)

    def take(self, x, indices):
        """Rows ``x[indices]`` (along axis 0): the same copy as fancy
        indexing, 2.6x faster on (m, 3) float64 rows (NumPy 2.4, x86-64
        Xeon)."""
        return np.take(x, indices, axis=0)

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    # -- elementwise math ----------------------------------------------
    def sqrt(self, x):
        return np.sqrt(x)

    def cbrt(self, x):
        return np.cbrt(x)

    def abs(self, x):
        return np.abs(x)

    def exp(self, x):
        return np.exp(x)

    def maximum(self, a, b):
        return np.maximum(a, b)

    def isfinite(self, x):
        return np.isfinite(x)

    # -- reductions ------------------------------------------------------
    def max(self, x, axis=None):
        return np.max(x, axis=axis)

    def any(self, x):
        return bool(np.any(x))

    def bincount(self, index, weights=None, minlength=0):
        """Histogram scatter-add; accumulates in float64 (NumPy rule)."""
        return np.bincount(index, weights=weights, minlength=minlength)

    # -- sorting / search ------------------------------------------------
    def argsort(self, x):
        """Stable argsort (the pair pipeline's determinism contract)."""
        return np.argsort(x, kind="stable")

    def flatnonzero(self, x):
        return np.flatnonzero(x)

    # -- contractions / linear algebra ------------------------------------
    def einsum(self, spec, *operands):
        return np.einsum(spec, *operands)

    def rowwise_dot(self, a, b):
        """Row-wise dot product of two (m, k) arrays -> (m,)."""
        return np.einsum("ij,ij->i", a, b)

    def trace(self, x):
        """Trace over the last two axes of a batched matrix stack."""
        return np.trace(x, axis1=-2, axis2=-1)

    def solve(self, a, b):
        """Batched dense solve (the CRK 3x3 moment systems)."""
        return np.linalg.solve(a, b)

    # -- segmented reduction -----------------------------------------------
    def segment_sum(self, sorted_values, starts):
        """Sum contiguous segments of pre-sorted rows.

        ``sorted_values`` is (m,) or (m, ...) already gathered into
        segment order; ``starts`` are the segment start offsets.
        Returns one row per segment, in the dtype of the input.
        """
        return np.add.reduceat(sorted_values, starts, axis=0)

    # -- spectral ----------------------------------------------------------
    def rfftn(self, x):
        return np.fft.rfftn(x)

    def irfftn(self, x, s, axes):
        return np.fft.irfftn(x, s=s, axes=axes)
