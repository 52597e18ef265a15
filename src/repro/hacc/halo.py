"""Friends-of-Friends and DBSCAN halo finding.

Section 3.1: modelling AGN feedback requires frequently identifying
massive dark-matter halos; HACC's host-side FOF finder was too slow, so
the team worked with the ArborX developers on a GPU DBSCAN that
executes the FOF algorithm.  This module is the substrate substitute:
a union-find FOF finder and a DBSCAN variant that, for
``min_points <= 2``, provably reduces to FOF (a property the test
suite exercises -- it is exactly the equivalence the ArborX
collaboration relied on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hacc.neighbors import find_pairs


class UnionFind:
    """Path-compressing union-find over ``n`` elements."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("size must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        # path compression
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def labels(self) -> np.ndarray:
        """Canonical root label for every element."""
        return np.array([self.find(i) for i in range(len(self.parent))])


@dataclass(frozen=True)
class HaloCatalog:
    """Result of a halo-finding pass."""

    #: per-particle group label (-1 for unclustered / noise)
    labels: np.ndarray
    #: number of groups with at least ``min_members`` particles
    n_halos: int
    #: sizes of those groups, descending
    sizes: np.ndarray

    def members(self, halo: int) -> np.ndarray:
        """Particle indices of the ``halo``-th largest group."""
        if not 0 <= halo < self.n_halos:
            raise IndexError(f"halo {halo} out of range")
        unique, counts = np.unique(self.labels[self.labels >= 0], return_counts=True)
        order = np.argsort(counts)[::-1]
        target = unique[order[halo]]
        return np.nonzero(self.labels == target)[0]


def fof(
    pos: np.ndarray,
    box: float,
    linking_length: float,
    *,
    min_members: int = 10,
) -> HaloCatalog:
    """Friends-of-Friends halo finding.

    Particles closer than ``linking_length`` are friends; the
    transitive closure of friendship defines the groups.  Groups below
    ``min_members`` are labelled -1 (HACC's convention for field
    particles).
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = len(pos)
    uf = UnionFind(n)
    i, j = find_pairs(pos, box, linking_length)
    half = len(i) // 2  # the canonical half: each unordered pair once
    for a, b in zip(i[:half].tolist(), j[:half].tolist()):
        uf.union(a, b)
    raw = uf.labels()
    return _catalog_from_labels(raw, min_members, noise=np.zeros(n, dtype=bool))


def dbscan(
    pos: np.ndarray,
    box: float,
    eps: float,
    min_points: int,
    *,
    min_members: int = 10,
) -> HaloCatalog:
    """DBSCAN clustering as used for the FOF workload.

    A particle with at least ``min_points`` neighbours within ``eps``
    (counting itself) is a *core* point.  Core points closer than
    ``eps`` are connected; border points join any neighbouring core's
    cluster; everything else is noise.  With ``min_points <= 2`` every
    particle in a pair is core and DBSCAN reduces exactly to FOF with
    ``linking_length = eps``.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = len(pos)
    i, j = find_pairs(pos, box, eps)
    degree = np.bincount(i, minlength=n) + 1  # + itself
    core = degree >= min_points

    uf = UnionFind(n)
    half = len(i) // 2
    for a, b in zip(i[:half].tolist(), j[:half].tolist()):
        if core[a] and core[b]:
            uf.union(a, b)
    raw = uf.labels()

    # border points: non-core with a core neighbour join that cluster
    noise = ~core
    border_mask = (~core[i]) & core[j]
    for a, b in zip(i[border_mask].tolist(), j[border_mask].tolist()):
        raw[a] = uf.find(b)
        noise[a] = False
    # isolated core points keep their own label; non-core, no core
    # neighbour -> noise
    return _catalog_from_labels(raw, min_members, noise=noise)


def _catalog_from_labels(
    raw: np.ndarray, min_members: int, noise: np.ndarray
) -> HaloCatalog:
    labels = raw.copy()
    labels[noise] = -1
    valid = labels >= 0
    unique, counts = np.unique(labels[valid], return_counts=True)
    keep = counts >= min_members
    kept = set(unique[keep].tolist())
    labels = np.where(
        np.isin(labels, list(kept)) if kept else np.zeros(len(labels), bool),
        labels,
        -1,
    )
    sizes = np.sort(counts[keep])[::-1]
    return HaloCatalog(labels=labels, n_halos=int(keep.sum()), sizes=sizes)
