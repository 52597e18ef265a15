"""Tests for the RCB tree."""

import itertools

import numpy as np
import pytest

from repro.hacc.tree import RCBTree


@pytest.fixture
def tree(rng):
    pos = rng.uniform(0, 10, (200, 3))
    return RCBTree.build(pos, leaf_size=16), pos


class TestConstruction:
    def test_leaves_partition_particles(self, tree):
        t, pos = tree
        all_indices = np.concatenate([leaf.indices for leaf in t.leaves])
        assert sorted(all_indices.tolist()) == list(range(len(pos)))

    def test_leaf_sizes_bounded(self, tree):
        t, _pos = tree
        assert all(leaf.count <= 16 for leaf in t.leaves)

    def test_median_split_balance(self, rng):
        pos = rng.uniform(0, 10, (256, 3))
        t = RCBTree.build(pos, leaf_size=16)
        counts = [leaf.count for leaf in t.leaves]
        # median splits of a power-of-two count give exactly equal leaves
        assert set(counts) == {16}

    def test_leaf_bounding_boxes_contain_members(self, tree):
        t, pos = tree
        for leaf in t.leaves:
            p = pos[leaf.indices]
            assert np.all(p >= leaf.lo - 1e-12)
            assert np.all(p <= leaf.hi + 1e-12)

    def test_bad_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            RCBTree.build(rng.uniform(0, 1, (10, 2)))
        with pytest.raises(ValueError):
            RCBTree.build(rng.uniform(0, 1, (10, 3)), leaf_size=0)

    def test_leaf_of_particle_inverse(self, tree):
        t, pos = tree
        lop = t.leaf_of_particle()
        for li, leaf in enumerate(t.leaves):
            assert np.all(lop[leaf.indices] == li)


class TestLeafPairs:
    def test_self_pairs_always_included(self, tree):
        t, _pos = tree
        pairs = t.leaf_pairs(cutoff=0.5)
        selfs = {(a, b) for a, b in pairs if a == b}
        assert len(selfs) == t.n_leaves

    def test_pair_count_grows_with_cutoff(self, tree):
        t, _pos = tree
        assert len(t.leaf_pairs(0.5)) <= len(t.leaf_pairs(3.0))

    def test_close_leaves_are_paired(self, rng):
        pos = rng.uniform(0, 1, (64, 3))  # tight cluster
        t = RCBTree.build(pos, leaf_size=16)
        pairs = t.leaf_pairs(cutoff=2.0)
        n = t.n_leaves
        assert len(pairs) == n * (n + 1) // 2  # everything within range

    def test_invalid_cutoff(self, tree):
        t, _pos = tree
        with pytest.raises(ValueError):
            t.leaf_pairs(0.0)


def periodic_leaf_pairs_oracle(tree, cutoff, box):
    """Leaf pairs whose boxes come within ``cutoff`` under one of the
    27 whole-box shifts of b, each shift a plain interval gap."""
    los = np.array([leaf.lo for leaf in tree.leaves])
    his = np.array([leaf.hi for leaf in tree.leaves])
    kept = []
    for a in range(tree.n_leaves):
        for b in range(a, tree.n_leaves):
            for shift in itertools.product((-box, 0.0, box), repeat=3):
                lo_b, hi_b = los[b] + shift, his[b] + shift
                gap = np.maximum(0.0, np.maximum(lo_b - his[a], los[a] - hi_b))
                if gap @ gap < cutoff * cutoff:
                    kept.append((a, b))
                    break
    return kept


class TestPeriodicLeafPairs:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_shift_oracle(self, seed):
        rng = np.random.default_rng(seed)
        box = rng.uniform(1.0, 10.0)
        pos = rng.uniform(0.0, box, (rng.integers(40, 300), 3))
        t = RCBTree.build(pos, leaf_size=int(rng.integers(4, 17)))
        for cutoff in box * np.array([0.05, 0.15, 0.3]):
            assert t.leaf_pairs(cutoff, box) == periodic_leaf_pairs_oracle(t, cutoff, box)

    def test_keeps_every_leaf_pair_of_the_sph_pair_list(self):
        # the figure workload's gas after one step, SPH cutoff, 16-particle
        # leaves: each leaf pair holding a pair is kept, and 3 200 of the
        # 8 256 possible leaf pairs are (a gap test that lets nearly every
        # pair across the seam through keeps 8 109)
        from repro.experiments.workload import workload_config
        from repro.hacc.particles import Species
        from repro.hacc.sph.pairs import PairContext, sph_cutoff
        from repro.hacc.timestep import AdiabaticDriver

        driver = AdiabaticDriver(workload_config(12))
        driver.advance()
        p = driver.particles
        gas = p.species_mask(Species.BARYON)
        pos, h = p.positions[gas], p.hsml[gas]
        ctx = PairContext.build(pos, h, p.box)
        t = RCBTree.build(pos, leaf_size=16)
        leaf = t.leaf_of_particle()
        a, b = leaf[ctx.i], leaf[ctx.j]
        needed = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        kept = set(t.leaf_pairs(sph_cutoff(h, p.box)[1], p.box))
        assert needed <= kept
        assert len(kept) < 0.5 * t.n_leaves * (t.n_leaves + 1) / 2


class TestInteractionInstances:
    def test_instances_follow_figure4_formula(self, rng):
        # |A| x |B| / (S/2)^2 instances per leaf pair
        pos = rng.uniform(0, 1, (32, 3))
        t = RCBTree.build(pos, leaf_size=16)
        assert t.n_leaves == 2
        # 3 pairs (AA, AB, BB), each 16*16/(16*16) = 1 instance
        assert t.interaction_instances(cutoff=2.0, subgroup_size=32) == 3

    def test_smaller_subgroups_need_more_instances(self, rng):
        pos = rng.uniform(0, 1, (128, 3))
        t = RCBTree.build(pos, leaf_size=16)
        i32 = t.interaction_instances(2.0, 32)
        i16 = t.interaction_instances(2.0, 16)
        assert i16 > i32
