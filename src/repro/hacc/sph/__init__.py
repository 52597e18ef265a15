"""CRK-SPH: the five hot kernels of the paper's Section 5.

The Conservative Reproducing Kernel SPH scheme (Frontiere, Raskin &
Owen 2017) corrects the standard SPH kernel so that linear fields are
reproduced exactly.  Its per-step pipeline -- and the paper's five
hotspots -- is:

1. **Geometry** (:mod:`~repro.hacc.sph.geometry`): per-particle volumes
   from inverse number density, plus the smoothing-length update.
2. **Corrections** (:mod:`~repro.hacc.sph.corrections`): the linear
   reproducing-kernel coefficients A_i, B_i from the moment sums.
3. **Extras** (:mod:`~repro.hacc.sph.extras`): the density (the
   paper's kernel also forms state gradients, which nothing here reads).
4. **Acceleration** (:mod:`~repro.hacc.sph.acceleration`): the momentum
   derivative with the symmetrised corrected kernel + viscosity.
5. **Energy** (:mod:`~repro.hacc.sph.energy`): the internal-energy
   derivative, pair-symmetric with the momentum update.

Each module exposes a vectorised pair-list implementation used by the
time stepper; the lane-structured GPU-variant implementations live in
:mod:`repro.kernels` and are cross-validated against these in the test
suite.
"""

from repro.hacc.sph.kernels_math import cubic_spline, cubic_spline_gradient
from repro.hacc.sph.geometry import compute_geometry
from repro.hacc.sph.corrections import compute_corrections
from repro.hacc.sph.extras import compute_extras
from repro.hacc.sph.acceleration import compute_acceleration
from repro.hacc.sph.energy import compute_energy_rate

__all__ = [
    "cubic_spline",
    "cubic_spline_gradient",
    "compute_geometry",
    "compute_corrections",
    "compute_extras",
    "compute_acceleration",
    "compute_energy_rate",
]
