"""Recursive Coordinate Bisection (RCB) tree.

HACC's CPU branch used RCB trees to reduce particle comparisons
(Section 3.1); the GPU branch keeps direct particle-particle
comparisons but organises particles into *leaves* that the half-warp
algorithm pairs up (lanes [0..S/2) process particles of leaf A, lanes
[S/2..S) particles of leaf B -- Figure 3).  The tree here provides both:
a balanced spatial bisection and the leaf-pair interaction lists the
GPU kernels consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RCBNode:
    """One node of the RCB tree (leaf when ``left is None``)."""

    lo: np.ndarray
    hi: np.ndarray
    indices: np.ndarray
    depth: int
    left: "RCBNode | None" = None
    right: "RCBNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def count(self) -> int:
        return len(self.indices)


@dataclass
class RCBTree:
    """RCB tree over a particle set.

    ``leaf_size`` defaults to 16 -- the half-warp leaf capacity for a
    sub-group of 32 (each half-warp holds one leaf's particles).
    """

    root: RCBNode
    leaves: list[RCBNode] = field(default_factory=list)

    @classmethod
    def build(cls, pos: np.ndarray, *, leaf_size: int = 16) -> "RCBTree":
        pos = np.asarray(pos, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        indices = np.arange(len(pos), dtype=np.int64)
        lo = pos.min(axis=0) if len(pos) else np.zeros(3)
        hi = pos.max(axis=0) if len(pos) else np.zeros(3)
        root = RCBNode(lo=lo, hi=hi, indices=indices, depth=0)
        tree = cls(root=root)
        tree._split(root, pos, leaf_size)
        return tree

    def _split(self, node: RCBNode, pos: np.ndarray, leaf_size: int) -> None:
        if node.count <= leaf_size:
            self.leaves.append(node)
            return
        extent = node.hi - node.lo
        axis = int(np.argmax(extent))
        coords = pos[node.indices, axis]
        order = np.argsort(coords, kind="stable")
        half = node.count // 2
        left_idx = node.indices[order[:half]]
        right_idx = node.indices[order[half:]]
        cut = coords[order[half]] if node.count else node.lo[axis]

        lo_l, hi_l = node.lo.copy(), node.hi.copy()
        hi_l[axis] = cut
        lo_r, hi_r = node.lo.copy(), node.hi.copy()
        lo_r[axis] = cut

        node.left = RCBNode(lo=lo_l, hi=hi_l, indices=left_idx, depth=node.depth + 1)
        node.right = RCBNode(lo=lo_r, hi=hi_r, indices=right_idx, depth=node.depth + 1)
        self._split(node.left, pos, leaf_size)
        self._split(node.right, pos, leaf_size)

    # ------------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def leaf_of_particle(self) -> np.ndarray:
        """Array mapping particle index -> leaf index."""
        total = sum(leaf.count for leaf in self.leaves)
        out = np.full(total, -1, dtype=np.int64)
        for li, leaf in enumerate(self.leaves):
            out[leaf.indices] = li
        return out

    def leaf_pairs(self, cutoff: float, box: float | None = None) -> list[tuple[int, int]]:
        """Leaf pairs (a, b), a <= b, whose bounding boxes are within
        ``cutoff`` (periodic minimum image when ``box`` is given).

        These are the interaction instances of the half-warp algorithm:
        each pair generates ``|Leaf_A| x |Leaf_B| / warp_size`` warp
        iterations (Figure 4's caption).
        """
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        pairs: list[tuple[int, int]] = []
        los = np.array([leaf.lo for leaf in self.leaves])
        his = np.array([leaf.hi for leaf in self.leaves])
        # leaf boxes lie inside [0, box): one image either side suffices
        shifts = np.array([0.0] if box is None else [-box, 0.0, box])[:, None, None]
        for a in range(self.n_leaves):
            # per-axis interval gap from box a to the nearest image of
            # each box b >= a
            gap = np.maximum(los[a:] + shifts - his[a], los[a] - his[a:] - shifts)
            gap = np.maximum(gap, 0.0).min(axis=0)
            dist2 = np.einsum("ij,ij->i", gap, gap)
            hits = np.nonzero(dist2 < cutoff * cutoff)[0]
            pairs.extend((a, a + int(h)) for h in hits)
        return pairs

    def interaction_instances(
        self, cutoff: float, subgroup_size: int, box: float | None = None
    ) -> int:
        """Total half-warp instances (Figure 4) for the current tree."""
        half = max(1, subgroup_size // 2)
        total = 0
        for a, b in self.leaf_pairs(cutoff, box):
            ca = self.leaves[a].count
            cb = self.leaves[b].count
            total += max(1, (ca * cb) // (half * half))
        return total
