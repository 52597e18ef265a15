"""Property-based tests for leaf scheduling and checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.hacc.tree import RCBTree
from repro.kernels.leaf_schedule import build_schedule, execute_schedule
from repro.kernels.variants import variant_by_name


@st.composite
def particle_clouds(draw):
    n = draw(st.integers(8, 60))
    pos = draw(
        hnp.arrays(
            np.float64,
            (n, 3),
            elements=st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
        )
    )
    return pos


class TestScheduleProperties:
    @given(particle_clouds())
    @settings(max_examples=20, deadline=None)
    def test_every_unordered_pair_counted_once(self, pos):
        """With a cutoff covering the whole cloud, the schedule touches
        each particle pair exactly once per accumulating side."""
        tree = RCBTree.build(pos, leaf_size=8)
        schedule = build_schedule(tree, cutoff=10.0, subgroup_size=16)

        def count_fn(own, other):
            return np.ones(own.shape[-1])

        counts = execute_schedule(
            schedule, pos.T.copy(), count_fn, variant_by_name("select")
        )
        assert np.allclose(counts, len(pos) - 1)

    @given(particle_clouds(), st.sampled_from(["select", "memory_object", "broadcast"]))
    @settings(max_examples=15, deadline=None)
    def test_symmetric_function_total_is_symmetric(self, pos, variant_name):
        tree = RCBTree.build(pos, leaf_size=8)
        schedule = build_schedule(tree, cutoff=10.0, subgroup_size=16)

        def sym_fn(own, other):
            d = own - other
            return np.einsum("fl,fl->l", d, d)

        result = execute_schedule(
            schedule, pos.T.copy(), sym_fn, variant_by_name(variant_name)
        )
        # brute-force symmetric total
        d = pos[:, None, :] - pos[None, :, :]
        r2 = np.einsum("abi,abi->ab", d, d)
        np.fill_diagonal(r2, 0.0)
        expected = r2.sum(axis=1)
        assert np.allclose(result, expected, rtol=1e-9, atol=1e-9)

    @given(particle_clouds())
    @settings(max_examples=15, deadline=None)
    def test_lane_efficiency_bounded(self, pos):
        tree = RCBTree.build(pos, leaf_size=8)
        schedule = build_schedule(tree, cutoff=10.0, subgroup_size=16)
        assert 0.0 < schedule.lane_efficiency <= 1.0


class TestCheckpointProperties:
    @given(
        st.integers(4, 30),
        st.floats(1.0, 20.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_save_load_roundtrip(self, n, box, seed):
        import tempfile
        from pathlib import Path

        from repro.hacc.particles import ParticleData
        from repro.hacc.timestep import SimulationConfig
        from repro.resilience import SimulationCheckpoint

        rng = np.random.default_rng(seed)
        arrays = ParticleData.allocate(n, box).arrays
        for name, arr in arrays.items():
            if arr.dtype == np.float64:
                arrays[name] = rng.normal(size=n)
        arrays["species"] = rng.integers(0, 2, n, dtype=np.int8)
        arrays["pid"] = rng.permutation(n).astype(np.int64)
        ckpt = SimulationCheckpoint(
            step_index=int(rng.integers(0, 5)),
            a=float(rng.uniform(0.01, 1.0)),
            config=SimulationConfig(n_per_side=6, n_steps=5, seed=seed),
            box=box,
            particle_arrays=arrays,
            rng_state=np.random.default_rng(seed).bit_generator.state,
            trace=(),
            diagnostics=(),
        )
        with tempfile.TemporaryDirectory(prefix="ckpt-") as tmp:
            loaded = SimulationCheckpoint.load(ckpt.save(Path(tmp) / "state.npz"))
        assert loaded.box == ckpt.box
        assert loaded.step_index == ckpt.step_index and loaded.a == ckpt.a
        assert loaded.particle_arrays.keys() == arrays.keys()
        for name, arr in arrays.items():
            assert np.array_equal(loaded.particle_arrays[name], arr)
            assert loaded.particle_arrays[name].dtype == arr.dtype
