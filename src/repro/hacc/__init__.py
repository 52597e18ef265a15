"""The CRK-HACC mini-app: CRK-SPH cosmological hydrodynamics + gravity.

This subpackage is the reproduction's stand-in for CRK-HACC itself
(whose source is restricted).  It implements the physics pipeline the
paper studies, at laptop scale:

- FLRW background cosmology and comoving kick-drift-kick stepping
  (:mod:`~repro.hacc.cosmology`, :mod:`~repro.hacc.timestep`),
- Zel'dovich initial conditions for dark-matter + baryon particles
  (:mod:`~repro.hacc.power`, :mod:`~repro.hacc.ic`),
- the long-range particle-mesh gravity solver (FFT Poisson,
  :mod:`~repro.hacc.pm`) and the short-range particle-particle solver
  with HACC's 5th-order polynomial force kernel
  (:mod:`~repro.hacc.short_range`),
- the pair searches of both solvers (:mod:`~repro.hacc.neighbors`) and
  the Recursive Coordinate Bisection tree (:mod:`~repro.hacc.tree`),
  which no step uses: only the modelled GPU leaf-pair schedule
  (:mod:`repro.kernels.leaf_schedule`) builds on it,
- the five hot CRK-SPH kernels of Section 5 -- Geometry, Corrections,
  Extras, Acceleration, Energy (:mod:`~repro.hacc.sph`),
- a simulated 8-rank MPI decomposition (:mod:`~repro.hacc.mpi_sim`), and
- an FOF/DBSCAN halo finder standing in for the ArborX integration
  (:mod:`~repro.hacc.halo`).
"""

from repro.hacc.cosmology import Cosmology
from repro.hacc.particles import ParticleData, Species
from repro.hacc.ic import zeldovich_ics
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.hacc.validation import validate_run

__all__ = [
    "validate_run",
    "Cosmology",
    "ParticleData",
    "Species",
    "zeldovich_ics",
    "AdiabaticDriver",
    "SimulationConfig",
]
