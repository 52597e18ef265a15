"""Tests for ``repro.xp``, the array-op seam of the hot path.

Covers the registry, the substitution point ``bench/layers.py`` relies
on (a backend built with ``type(...)`` that sees every array op of a
step), op oracles that do not come from the op's own NumPy call, the
dtype-fidelity contract, and three pair-pipeline bugfix regressions
(float32 upcast in scatter_sum, scalar smoothing lengths, swapped
sph_cutoff arguments).
"""

import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import xp
from repro.xp.base import OP_NAMES, ArrayBackend

#: every backend registered at collection time (the reference alone)
BACKENDS = xp.registered_backends()


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """Backend selection is process-global; never leak it across tests."""
    yield
    xp.set_backend("numpy")


def _deregister(name):
    """What ``bench/layers.py`` does: xp has no public deregistration."""
    for table in ("_REGISTRY", "_INSTANCES"):
        getattr(xp, table, {}).pop(name, None)


@pytest.fixture
def echo_backend():
    """A registered do-nothing subclass, removed afterwards."""

    @xp.register_backend
    class EchoBackend(ArrayBackend):
        name = "echo-test"

    yield EchoBackend.name
    _deregister(EchoBackend.name)


# ---------------------------------------------------------------------------
# registry / selection
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert xp.registered_backends() == ["numpy"]
        assert xp.get_backend().name == "numpy"
        assert type(xp.get_backend()) is ArrayBackend

    def test_unknown_backend_raises(self):
        with pytest.raises(xp.UnknownBackendError, match="registered:"):
            xp.set_backend("does-not-exist")

    def test_set_backend_switches_dispatch(self, echo_backend):
        xp.set_backend(echo_backend)
        assert xp.get_backend().name == echo_backend
        xp.set_backend("numpy")
        assert xp.get_backend().name == "numpy"

    def test_use_backend_scopes_and_restores(self, echo_backend):
        with xp.use_backend(echo_backend) as backend:
            assert backend.name == echo_backend
            assert xp.get_backend() is backend
        assert xp.get_backend().name == "numpy"

    def test_module_getattr_rejects_non_ops(self):
        with pytest.raises(AttributeError):
            xp.not_an_op  # noqa: B018

    def test_register_backend_requires_subclass_and_name(self):
        with pytest.raises(TypeError):
            xp.register_backend(int)
        with pytest.raises(ValueError):
            xp.register_backend(type("Anon", (ArrayBackend,), {}))

    def test_register_backend_roundtrip(self, echo_backend):
        assert echo_backend in xp.registered_backends()
        _deregister(echo_backend)
        assert echo_backend not in xp.registered_backends()


# ---------------------------------------------------------------------------
# the instrumentation seam
# ---------------------------------------------------------------------------
#: the ops ``bench/layers.py`` reports by name
NAMED_OPS = {"rowwise_dot", "segment_sum", "bincount", "einsum", "repeat"}


class TestSeam:
    """The contract ``bench/layers.py`` depends on, checked in tier-1."""

    @pytest.mark.parametrize(
        "use_cells, config, named_ops",
        [
            (True, {"n_per_side": 8, "pm_mesh": 32}, NAMED_OPS),
            # gravity at 2 cells per side: no cell stencil to expand, so
            # no repeat
            (False, {"n_per_side": 6, "pm_mesh": 16}, NAMED_OPS - {"repeat"}),
        ],
        ids=["cell-path", "dense-path"],
    )
    def test_counting_backend_sees_every_op_of_a_step(
        self, monkeypatch, use_cells, config, named_ops
    ):
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        # tally what reaches the reference runtime, to compare with what
        # the registered backend saw
        reached = Counter()

        def spied(op, fn):
            def call(self, *args, **kwargs):
                reached[op] += 1
                return fn(self, *args, **kwargs)

            return call

        for op in OP_NAMES:
            monkeypatch.setattr(ArrayBackend, op, spied(op, getattr(ArrayBackend, op)))

        inner = xp.get_backend()
        seen = Counter()

        def counted(op):
            fn = getattr(inner, op)

            def call(_self, *args, **kwargs):
                seen[op] += 1
                return fn(*args, **kwargs)

            return call

        namespace = {op: counted(op) for op in OP_NAMES}
        namespace.update(name="counting-test", requires=None, summary="counts ops")
        xp.register_backend(type("CountingBackend", (ArrayBackend,), namespace))
        try:
            xp.set_backend("counting-test")
            driver = AdiabaticDriver(SimulationConfig(n_steps=1, **config))
            schedule = driver.schedule()
            reached.clear()
            seen.clear()
            driver.step(float(schedule[0]), float(schedule[1]))
        finally:
            xp.set_backend(inner.name)
            _deregister("counting-test")

        assert "counting-test" not in xp.registered_backends()
        assert seen == reached  # no call bypassed the active backend
        assert set(seen) <= set(OP_NAMES)
        assert named_ops <= set(seen)
        cells = driver.pair_cache.get(
            driver.particles.positions, driver.short_range.cutoff
        )
        assert cells.use_cells is use_cells

    def test_every_op_has_a_hot_path_call_site(self):
        src = Path(repro.__file__).parent
        text = "\n".join(
            path.read_text()
            for path in src.rglob("*.py")
            if src / "xp" not in path.parents
        )
        called = set(re.findall(r"\bxp\.(\w+)\(", text))
        assert set(OP_NAMES) <= called, sorted(set(OP_NAMES) - called)


# ---------------------------------------------------------------------------
# op oracles: each op against a formulation that is not its own NumPy call
# ---------------------------------------------------------------------------
def _segments_fixture(rng, m=257, n_seg=31, trailing=()):
    values = rng.standard_normal((m,) + trailing)
    starts = np.sort(rng.choice(np.arange(1, m), size=n_seg - 1, replace=False))
    starts = np.concatenate([[0], starts]).astype(np.int64)
    return values, starts


def _segment_sum_by_histogram(values, starts):
    """Independent oracle for ``segment_sum``: label each row with its
    segment and histogram every trailing column in float64."""
    m, n_seg = len(values), len(starts)
    row_seg = np.repeat(np.arange(n_seg), np.diff(np.append(starts, m)))
    flat = values.reshape(m, -1).astype(np.float64)
    out = np.stack(
        [np.bincount(row_seg, weights=col, minlength=n_seg) for col in flat.T],
        axis=1,
    )
    return out.reshape((n_seg,) + values.shape[1:])


class TestOpParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("trailing", [(), (3,), (3, 3)])
    def test_segment_sum_matches_reference(self, backend, trailing):
        rng = np.random.default_rng(7)
        values, starts = _segments_fixture(rng, trailing=trailing)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            typed = values.astype(dtype)
            with xp.use_backend(backend):
                got = xp.segment_sum(typed, starts)
            expect = _segment_sum_by_histogram(typed, starts)
            np.testing.assert_allclose(got, expect, rtol=tol, atol=tol)
            assert got.shape == expect.shape

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rowwise_dot_matches_reference(self, backend):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((101, 3))
        b = rng.standard_normal((101, 3))
        with xp.use_backend(backend):
            got = xp.rowwise_dot(a, b)
        np.testing.assert_allclose(got, (a * b).sum(axis=1), rtol=1e-13)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_weighted_bincount_matches_reference(self, backend):
        rng = np.random.default_rng(13)
        index = rng.integers(0, 20, size=300)
        weights = rng.standard_normal(300)
        with xp.use_backend(backend):
            got = xp.bincount(index, weights=weights, minlength=25)
        expect = np.zeros(25)
        np.add.at(expect, index, weights)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_argsort_is_stable(self, backend):
        keys = np.array([2, 1, 2, 1, 2, 1, 0, 0], dtype=np.int64)
        with xp.use_backend(backend):
            order = xp.argsort(keys)
        # ties keep input order: the pair pipeline's determinism contract
        np.testing.assert_array_equal(order, [6, 7, 1, 3, 5, 0, 2, 4])


# ---------------------------------------------------------------------------
# dtype fidelity
# ---------------------------------------------------------------------------
class TestDtypeFidelity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ensure_float_preserves_float_dtypes(self, dtype):
        out = xp.ensure_float(np.ones(4, dtype=dtype))
        assert out.dtype == dtype

    def test_ensure_float_promotes_ints_to_float64(self):
        assert xp.ensure_float(np.arange(4)).dtype == np.float64
        assert xp.ensure_float([1, 2, 3]).dtype == np.float64

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_sum_preserves_dtype(self, backend, dtype):
        rng = np.random.default_rng(3)
        values, starts = _segments_fixture(rng, trailing=(3,))
        values = values.astype(dtype)
        with xp.use_backend(backend):
            assert xp.segment_sum(values, starts).dtype == dtype


# ---------------------------------------------------------------------------
# bugfix regressions (pair pipeline)
# ---------------------------------------------------------------------------
def _tiny_context():
    from repro.hacc.sph.pairs import PairContext

    rng = np.random.default_rng(5)
    pos = rng.uniform(0.0, 1.0, size=(24, 3))
    h = np.full(24, 0.18)
    return PairContext.build(pos, h, 1.0), h


class TestScatterSumDtypeRegression:
    """Bugfix: scatter_sum silently upcast float32 pair values to
    float64 (``np.zeros`` without ``dtype=values.dtype``)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_float32_values_accumulate_as_float32(self, backend, shape):
        ctx, _h = _tiny_context()
        rng = np.random.default_rng(9)
        values = rng.standard_normal((ctx.n_pairs,) + shape).astype(np.float32)
        with xp.use_backend(backend):
            out = ctx.scatter_sum(values)
        assert out.dtype == np.float32
        assert out.shape == (ctx.n,) + shape
        np.testing.assert_allclose(
            out, _reference_scatter(ctx, values), rtol=1e-5, atol=1e-5
        )

    def test_float64_results_unchanged(self):
        ctx, _h = _tiny_context()
        values = np.random.default_rng(2).standard_normal(ctx.n_pairs)
        out = ctx.scatter_sum(values)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, _reference_scatter(ctx, values), rtol=1e-12)

    def test_empty_context_keeps_dtype(self):
        from repro.hacc.sph.pairs import PairContext

        ctx = PairContext.build(np.zeros((0, 3)), np.zeros(0), 1.0)
        out = ctx.scatter_sum(np.zeros((0, 3), dtype=np.float32))
        assert out.dtype == np.float32
        assert out.shape == (0, 3)


def _reference_scatter(ctx, values):
    out = np.zeros((ctx.n,) + values.shape[1:], dtype=np.float64)
    np.add.at(out, ctx.i, values.astype(np.float64))
    return out


class TestScalarSmoothingLengthRegression:
    """Bugfix: ``kernel_values(h)`` crashed with a TypeError when ``h``
    was a python float (``h[self.i]`` on a scalar)."""

    def test_scalar_h_matches_uniform_array(self):
        ctx, h = _tiny_context()
        scalar = float(h[0])
        np.testing.assert_array_equal(
            ctx.kernel_values(scalar), ctx.kernel_values(h)
        )
        np.testing.assert_array_equal(
            ctx.kernel_gradients(scalar), ctx.kernel_gradients(h)
        )

    def test_zero_dim_array_accepted(self):
        ctx, h = _tiny_context()
        np.testing.assert_array_equal(
            ctx.kernel_values(np.float64(h[0])), ctx.kernel_values(h)
        )


class TestSphCutoffValidationRegression:
    """Bugfix: swapping the (h, box) arguments surfaced as an opaque
    'truth value of an array is ambiguous' ValueError from ``min``."""

    def test_swapped_arguments_raise_clear_typeerror(self):
        from repro.hacc.sph.pairs import sph_cutoff

        h = np.full(10, 0.2)
        with pytest.raises(TypeError, match="did you swap"):
            sph_cutoff(1.0, h)  # box and h swapped

    @pytest.mark.parametrize("box", [0.0, -1.0])
    def test_nonpositive_box_rejected(self, box):
        from repro.hacc.sph.pairs import sph_cutoff

        with pytest.raises(ValueError, match="must be positive"):
            sph_cutoff(np.full(4, 0.1), box)

    def test_valid_call_unchanged(self):
        from repro.hacc.sph.kernels_math import SUPPORT
        from repro.hacc.sph.pairs import sph_cutoff

        requested, clamped = sph_cutoff(np.full(4, 0.1), 10.0)
        assert requested == pytest.approx(SUPPORT * 0.1)
        assert clamped == requested
