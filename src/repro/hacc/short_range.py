"""Short-range particle-particle gravity.

The complement of the PM force inside the cutoff.  With a Gaussian
long-range filter ``exp(-k^2 r_s^2)``, the short-range pair force
kernel is

    f(r) = 1/r^3 * [ erfc(r / 2 r_s) + (r / (sqrt(pi) r_s)) exp(-r^2 / 4 r_s^2) ]

HACC does not evaluate erfc in the inner loop: it uses a fitted
polynomial of the scaled separation (the ``HACC_CUDA_POLY_ORDER=5``
build flag in the paper's Appendix A), and so does the solver: a
degree-5 fit in r^2 is the only kernel it runs.  The exact kernel is
the fit's target and the tests' reference, not a run-time path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.neighbors import (
    MINIMUM_IMAGE_FRACTION,
    CellList,
    CellListCache,
    find_pairs,
    pair_separations,
)
from repro.hacc.particles import ParticleData
from repro.hacc.units import G_NEWTON

#: polynomial order of the fitted force kernel (Appendix A)
POLY_ORDER = 5


def exact_short_range_factor(r: np.ndarray, r_s: float) -> np.ndarray:
    """The dimensionless short-range factor S(r) with F = G m1 m2 S(r) r_hat / r^2.

    S(r) -> 1 as r -> 0 (full Newtonian force) and -> 0 beyond a few
    r_s (the mesh carries it).
    """
    r = np.asarray(r, dtype=np.float64)
    x = r / (2.0 * r_s)
    # math.erfc per element: the fit evaluates 512 points once per kernel
    erfc = np.vectorize(math.erfc, otypes=[np.float64])(x)
    return erfc + (r / (np.sqrt(np.pi) * r_s)) * np.exp(-(x**2))


@dataclass(frozen=True)
class PolynomialForceKernel:
    """Degree-5 polynomial fit of S(r)/r^3 * r^3 = S(r) in u = (r/cutoff)^2.

    Fitting in r^2 avoids a square root in the inner loop, exactly the
    trick the production CUDA kernel uses.
    """

    coefficients: np.ndarray
    cutoff: float
    r_s: float

    @classmethod
    def fit(cls, r_s: float, cutoff: float, order: int = POLY_ORDER) -> "PolynomialForceKernel":
        if r_s <= 0 or cutoff <= 0:
            raise ValueError("scales must be positive")
        # Sample away from r=0 (softened region handled separately).
        r = np.linspace(1e-3 * cutoff, cutoff, 512)
        u = (r / cutoff) ** 2
        target = exact_short_range_factor(r, r_s)
        coeffs = np.polynomial.polynomial.polyfit(u, target, order)
        return cls(coefficients=coeffs, cutoff=cutoff, r_s=r_s)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Evaluate the fitted S(r); zero beyond the cutoff."""
        r = np.asarray(r, dtype=np.float64)
        u = (r / self.cutoff) ** 2
        s = np.polynomial.polynomial.polyval(u, self.coefficients)
        return np.where(r < self.cutoff, s, 0.0)


@dataclass
class _StateMemo:
    """The pair list of the last particle state searched."""

    search_key: tuple[float, float]
    positions: np.ndarray
    i: np.ndarray
    j: np.ndarray


class ShortRangeSolver:
    """Direct particle-particle short-range gravity inside the cutoff."""

    def __init__(self, box: float, r_s: float, cutoff: float, softening: float | None = None):
        # refused, not clamped: a shorter cutoff drops the pairs in between
        if cutoff > MINIMUM_IMAGE_FRACTION * box:
            raise ValueError(
                f"short-range cutoff {cutoff:.6g} exceeds the minimum-image bound "
                f"{MINIMUM_IMAGE_FRACTION * box:.6g} of box {box:.6g}: refine the PM mesh"
            )
        self.box = box
        self.r_s = r_s
        self.cutoff = cutoff
        #: Plummer softening; defaults to a small fraction of r_s
        self.softening = softening if softening is not None else 0.02 * r_s
        self.kernel = PolynomialForceKernel.fit(r_s, cutoff)
        #: pair list of the last particle state, keyed by value on what
        #: it depends on, so the cost model (:meth:`interaction_count`)
        #: and the force evaluation share one search.  A restored or
        #: rolled-back state simply misses.  (The driver keeps the last
        #: state's whole gravity; see ``AdiabaticDriver._gravity``.)
        self._memo: _StateMemo | None = None

    def clear_memo(self) -> None:
        """Forget the memoised state (the next call recomputes)."""
        self._memo = None

    def _memo_at(self, pos: np.ndarray) -> _StateMemo | None:
        memo = self._memo
        if (
            memo is not None
            and memo.search_key == (self.box, self.cutoff)
            and np.array_equal(memo.positions, pos)
        ):
            return memo
        return None

    def pair_list(
        self, particles: ParticleData, *, cell_list: CellList | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Directed pair list inside the cutoff, memoised per state.

        Repeated calls at identical positions (the accelerations /
        interaction-count pattern of one force evaluation) reuse the
        stored list; ``cell_list``, when given, must be the cell list
        of these positions at the solver's cutoff (see ``find_pairs``).
        """
        pos = particles.positions
        memo = self._memo_at(pos)
        if memo is None:
            i, j = find_pairs(pos, self.box, self.cutoff, cell_list=cell_list)
            memo = self._memo = _StateMemo((self.box, self.cutoff), pos, i, j)
        return memo.i, memo.j

    def accelerations(
        self, particles: ParticleData, *, cells: CellListCache | None = None
    ) -> np.ndarray:
        """(n, 3) short-range comoving accelerations, a fresh array per
        call.  ``cells`` (the driver's counted source) is binned only
        for a state with no pair list yet; the result is the same
        without it."""
        pos = particles.positions
        searches = cells is not None and self._memo_at(pos) is None
        cell_list = cells.get(pos, self.cutoff) if searches else None
        i, j = self.pair_list(particles, cell_list=cell_list)
        return self._evaluate(pos, particles.mass, i, j)

    def _evaluate(self, pos, mass, i, j) -> np.ndarray:
        """The direct sum, one evaluation per unordered pair: the
        canonical half is evaluated and each mirror row (see
        ``find_pairs``) takes the negated force, antisymmetric bitwise."""
        n, half = len(pos), len(i) // 2
        ih, jh = i[:half], j[:half]
        d, r2 = pair_separations(pos, self.box, ih, jh)
        r2 += self.softening**2
        r = xp.sqrt(r2)
        a = G_NEWTON * self.kernel(r) / (r2 * r)
        # attraction of i toward j: -m_j a d on row k, +m_i a d on its mirror
        f = xp.concatenate([-mass[jh] * a, mass[ih] * a])
        acc = np.zeros((n, 3), dtype=pos.dtype)
        # per-axis bincount scatter: a particle's terms add in pair-list
        # order, so equal pair lists give bit-equal accelerations
        for axis in range(3):
            weights = f * xp.concatenate([d[:, axis], d[:, axis]])
            acc[:, axis] = xp.bincount(i, weights=weights, minlength=n)
        return acc

    def interaction_count(self, particles: ParticleData) -> int:
        """Number of directed pair interactions (feeds the cost model)."""
        i, _j = self.pair_list(particles)
        return len(i)
