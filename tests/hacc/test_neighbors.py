"""Tests for neighbour finding."""

import subprocess

import numpy as np
import pytest

from repro.hacc.neighbors import CellList, CellListCache, find_pairs


def brute_force_pairs(pos, box, cutoff):
    half = 0.5 * box
    d = pos[:, None, :] - pos[None, :, :]
    d = (d + half) % box - half
    r2 = np.einsum("abi,abi->ab", d, d)
    mask = r2 < cutoff**2
    np.fill_diagonal(mask, False)
    return set(zip(*np.nonzero(mask)))


class TestFindPairs:
    def test_matches_brute_force(self, rng):
        pos = rng.uniform(0, 10, (120, 3))
        i, j = find_pairs(pos, 10.0, 1.7)
        assert set(zip(i.tolist(), j.tolist())) == brute_force_pairs(pos, 10.0, 1.7)

    def test_directed_symmetry(self, rng):
        pos = rng.uniform(0, 10, (80, 3))
        i, j = find_pairs(pos, 10.0, 2.0)
        pairs = set(zip(i.tolist(), j.tolist()))
        assert all((b, a) in pairs for a, b in pairs)

    def test_periodic_pair_across_boundary(self):
        pos = np.array([[0.1, 5.0, 5.0], [9.9, 5.0, 5.0]])
        i, j = find_pairs(pos, 10.0, 0.5)
        assert len(i) == 2  # both directions

    def test_no_self_pairs(self, rng):
        pos = rng.uniform(0, 10, (50, 3))
        i, j = find_pairs(pos, 10.0, 3.0)
        assert np.all(i != j)

    def test_excessive_cutoff_rejected(self, rng):
        with pytest.raises(ValueError):
            find_pairs(rng.uniform(0, 10, (5, 3)), 10.0, 6.0)

    def test_bruteforce_path_for_small_boxes(self, rng):
        # cutoff big enough that fewer than 4 cells fit per side
        pos = rng.uniform(0, 10, (40, 3))
        i, j = find_pairs(pos, 10.0, 4.0)
        assert set(zip(i.tolist(), j.tolist())) == brute_force_pairs(pos, 10.0, 4.0)

    def test_empty_result(self):
        pos = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        i, j = find_pairs(pos, 10.0, 0.5)
        assert len(i) == 0

    def test_symmetric_mode_keeps_coincident_distinct_particles(self):
        # coincident *distinct* particles are within any cutoff
        # (matching the brute-force oracle)
        pos = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])
        i, j = find_pairs(pos, 10.0, 1.0)
        assert set(zip(i.tolist(), j.tolist())) == {(0, 1), (1, 0)}


class TestFindPairsPropertyStyle:
    """Cell-list vs brute-force oracle on adversarial configurations."""

    @staticmethod
    def assert_exact(pos, box, cutoff, label=None):
        """The pair set is the oracle's, and the list -- order included
        -- is the same whether ``find_pairs`` bins or is handed the
        cell list of (pos, box, cutoff)."""
        i, j = find_pairs(pos, box, cutoff)
        assert set(zip(i.tolist(), j.tolist())) == brute_force_pairs(
            pos, box, cutoff
        ), label
        cl = CellList.build(pos, box, cutoff)
        i_cl, j_cl = find_pairs(pos, box, cutoff, cell_list=cl)
        assert np.array_equal(i, i_cl) and np.array_equal(j, j_cl), label
        return cl

    def test_randomized_periodic_configurations(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 200))
            cutoff = float(rng.uniform(0.4, 3.0))
            pos = rng.uniform(0, 10, (n, 3))
            self.assert_exact(pos, 10.0, cutoff, f"seed {seed}")

    def test_particles_exactly_on_cell_boundaries(self):
        # cutoff 2.0 on box 10 -> cell size 2.0; lattice points sit
        # exactly on every cell boundary
        coords = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 1.0, 3.0])
        gx, gy, gz = np.meshgrid(coords[:4], coords[:4], coords[:4], indexing="ij")
        pos = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        self.assert_exact(pos, 10.0, 2.0)

    def test_n_cells_exactly_three(self, rng):
        # box / cutoff in [3, 4): the half stencil would scan every pair
        # of the box, so the dense search answers
        pos = rng.uniform(0, 10, (150, 3))
        cl = self.assert_exact(pos, 10.0, 10.0 / 3.2)
        assert not cl.use_cells and cl.n_cells == 3

    def test_n_cells_exactly_four(self, rng):
        # box / cutoff in [4, 5): the smallest box where the stencil
        # path (use_cells) engages
        pos = rng.uniform(0, 10, (150, 3))
        cl = self.assert_exact(pos, 10.0, 10.0 / 4.2)
        assert cl.use_cells and cl.n_cells == 4

    def test_asymmetric_wrap_canonical_direction(self):
        # a pair straddling the periodic seam at a separation within a
        # few ulp of the cutoff: the wrap is not bitwise symmetric
        # under i<->j, so the cutoff decision must be made once per
        # unordered pair or the directed list loses its mirror
        eps = 1e-13
        pos = np.array(
            [
                [9.999999, 5.0, 5.0],
                [1.0 - eps, 5.0, 5.0],
                [5.0, 5.0, 5.0],
            ]
        )
        for cutoff in (1.000001 - eps, 1.0000005, 2.5):
            i, j = find_pairs(pos, 10.0, cutoff)
            pairs = set(zip(i.tolist(), j.tolist()))
            assert all((b, a) in pairs for a, b in pairs), cutoff


def dense_oracle(pos, box, cutoff):
    """The one-shot (n, n, 3) dense search ``_find_pairs_bruteforce``
    used before it went blocked; its pair *order* is the contract."""
    half = 0.5 * box
    d = pos[:, None, :] - pos[None, :, :]
    d = (d + half) % box - half
    r2 = np.einsum("abi,abi->ab", d, d)
    i, j = np.nonzero(np.triu(r2 < cutoff * cutoff, k=1))
    return np.concatenate([i, j]), np.concatenate([j, i])


class TestDenseSearch:
    """Both search paths against the one-shot oracle: the blocked
    brute-force path pair for pair, the cell path as a multiset."""

    BOX, CUTOFF = 10.0, 3.5  # 2 cells per side: find_pairs goes dense

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 700])
    @pytest.mark.parametrize("prebuilt", [True, False])
    def test_same_pairs_in_same_order(self, n, prebuilt):
        # the driver hands find_pairs a pre-built list, a bare call bins
        # its own: either way the dense search answers, in oracle order
        rng = np.random.default_rng(n)
        pos = rng.uniform(0, self.BOX, (n, 3))
        cl = CellList.build(pos, self.BOX, self.CUTOFF)
        assert not cl.use_cells
        got = find_pairs(
            pos, self.BOX, self.CUTOFF, cell_list=cl if prebuilt else None
        )
        want = dense_oracle(pos, self.BOX, self.CUTOFF)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("seed", range(6))
    def test_cell_path_finds_the_oracle_pair_multiset(self, seed):
        # the property configs of the retired pair-pipeline benchmark:
        # the cell path emits another order than the oracle, but must
        # emit every directed pair exactly as often
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 701))
        cutoff = float(rng.uniform(0.5, 2.5))
        pos = rng.uniform(0, self.BOX, (n, 3))
        assert CellList.build(pos, self.BOX, cutoff).use_cells
        got = np.column_stack(find_pairs(pos, self.BOX, cutoff))
        want = np.column_stack(dense_oracle(pos, self.BOX, cutoff))
        assert len(want) > 0
        assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])

    def test_peak_memory_is_block_sized(self):
        import tracemalloc

        rng = np.random.default_rng(3000)
        pos = rng.uniform(0, self.BOX, (3000, 3))
        tracemalloc.start()
        try:
            i, j = find_pairs(pos, self.BOX, self.CUTOFF)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(i) == len(j) > 1_000_000
        # the one-shot search peaked near 650 MB here (n^2 x 3 doubles,
        # twice); blocks + the pair arrays themselves stay far below
        assert peak < 128 * 2**20


class TestCellList:
    def test_reuse_matches_fresh_search(self, rng):
        pos = rng.uniform(0, 10, (200, 3))
        cl = CellList.build(pos, 10.0, 1.5)
        i1, j1 = find_pairs(pos, 10.0, 1.5, cell_list=cl)
        i2, j2 = find_pairs(pos, 10.0, 1.5)
        assert np.array_equal(i1, i2) and np.array_equal(j1, j2)

    def test_supports_smaller_cutoff(self, rng):
        pos = rng.uniform(0, 10, (200, 3))
        cl = CellList.build(pos, 10.0, 2.0)
        i, j = find_pairs(pos, 10.0, 1.0, cell_list=cl)
        assert set(zip(i.tolist(), j.tolist())) == brute_force_pairs(pos, 10.0, 1.0)

    def test_rejects_cutoff_wider_than_periodic_stencil(self, rng):
        # cells of 1.0: the 27-cell stencil would miss pairs beyond it
        pos = rng.uniform(0, 10, (50, 3))
        cl = CellList.build(pos, 10.0, 1.0)
        for cutoff in (1.01, 4.9):
            with pytest.raises(ValueError, match="cannot answer cutoff"):
                find_pairs(pos, 10.0, cutoff, cell_list=cl)

    def test_cutoff_an_ulp_above_the_cell_size_is_its_own(self):
        # box / floor(box / cutoff) rounds below the cutoff it was built for
        box, cutoff = 194.1044259685213, 0.9753991254699563
        pos = np.random.default_rng(0).uniform(0, box, (40, 3))
        cl = CellList.build(pos, box, cutoff)
        assert cl.cell_size < cutoff
        find_pairs(pos, box, cutoff, cell_list=cl)

    def test_shape_mismatch_rejected(self, rng):
        cl = CellList.build(rng.uniform(0, 10, (50, 3)), 10.0, 1.5)
        with pytest.raises(ValueError, match="other positions"):
            find_pairs(rng.uniform(0, 10, (51, 3)), 10.0, 1.5, cell_list=cl)

    def test_moved_positions_or_another_box_rejected(self, rng):
        # a list answers only for the set it binned: no stale queries
        pos = rng.uniform(0, 10, (50, 3))
        cl = CellList.build(pos, 10.0, 1.5)
        moved = pos.copy()
        moved[7, 0] += 1e-9
        with pytest.raises(ValueError, match="other positions"):
            find_pairs(moved, 10.0, 1.5, cell_list=cl)
        with pytest.raises(ValueError, match="box"):
            find_pairs(pos, 12.0, 1.5, cell_list=cl)
        # by value, not identity
        find_pairs(pos.copy(), 10.0, 1.5, cell_list=cl)


class TestCellListCache:
    def test_metrics_mirroring(self, rng):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = CellListCache(10.0, metrics=registry)
        pos = rng.uniform(0, 10, (100, 3))
        first = cache.get(pos, 1.5)
        second = cache.get(pos, 1.5)
        # nothing is kept: every call builds, and is counted
        assert first is not second
        assert first.n_cells == second.n_cells
        assert np.array_equal(first.pos, second.pos)
        assert cache.builds == 2
        assert registry.counter("sim.pairs.cell_list.builds").value == 2


class TestCompiledSearch:
    """The search is compiled on first use into a per-user cache, keyed
    by its source and flags, once however many threads ask."""

    @pytest.fixture
    def cold(self, tmp_path, monkeypatch):
        """A fresh cache directory, nothing loaded, and a count of the
        compiler runs."""
        import repro.hacc.neighbors as neighbors

        cache = tmp_path / "cache"
        monkeypatch.setattr(neighbors, "_CACHE_DIR", cache)
        monkeypatch.setattr(neighbors, "_LIB", None)
        builds = []
        run = subprocess.run

        def counted(*args, **kwargs):
            builds.append(args[0])
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        return neighbors, cache, builds

    def test_a_cold_build_compiles_once(self, cold, monkeypatch, rng):
        neighbors, cache, builds = cold
        pos = rng.uniform(0, 10, (200, 3))
        first = find_pairs(pos, 10.0, 1.5)
        assert len(builds) == 1
        (library,) = cache.iterdir()  # the temporary name was replaced
        assert library.suffix == ".so"
        assert cache.stat().st_mode & 0o777 == 0o700
        monkeypatch.setattr(neighbors, "_LIB", None)  # a new process
        again = find_pairs(pos, 10.0, 1.5)
        assert len(builds) == 1
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_racing_threads_build_it_once(self, cold, rng):
        import threading

        _neighbors, _cache, builds = cold
        pos = rng.uniform(0, 10, (300, 3))
        start = threading.Barrier(2)
        results = [None, None]

        def search(k):
            start.wait()
            results[k] = find_pairs(pos, 10.0, 1.5)

        threads = [threading.Thread(target=search, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert all(np.array_equal(a, b) for a, b in zip(*results))

    def test_a_cache_others_can_write_is_refused(self, cold, rng):
        _neighbors, cache, builds = cold
        cache.mkdir(mode=0o700)
        cache.chmod(0o777)
        with pytest.raises(RuntimeError, match="writable by no other"):
            find_pairs(rng.uniform(0, 10, (20, 3)), 10.0, 1.5)
        assert builds == []

    def test_no_compiler_fails_at_the_first_search_not_at_import(self, tmp_path):
        import sys
        from pathlib import Path

        import repro

        script = (
            "import numpy as np\n"
            "from repro.hacc.neighbors import find_pairs\n"
            "print('imported')\n"
            "find_pairs(np.zeros((2, 3)), 10.0, 1.0)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={
                "PATH": "",
                "HOME": str(tmp_path),
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == "imported\n"
        assert done.stderr.rstrip().splitlines()[-1] == (
            "RuntimeError: the pair search is compiled on first use and needs "
            "a C compiler: no `cc` on PATH"
        )
