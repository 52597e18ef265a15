"""repro: a reproduction of "A Performance-Portable SYCL Implementation
of CRK-HACC for Exascale" (SC 2023).

The package is organised by the layers of the paper's study:

- :mod:`repro.hacc` -- the CRK-HACC mini-app (CRK-SPH hydrodynamics +
  gravity, two particle species, simulated MPI decomposition),
- :mod:`repro.machine` -- virtual-GPU performance models of the three
  test systems (Aurora, Polaris, Frontier),
- :mod:`repro.proglang` -- programming-model layer (CUDA / HIP / SYCL /
  inline vISA availability, compilation, sub-group intrinsics),
- :mod:`repro.kernels` -- the five hot kernels under the five
  communication variants of Section 5,
- :mod:`repro.migrate` -- the SYCLomatic-style CUDA->SYCL migration
  pipeline of Section 4,
- :mod:`repro.core` -- the P3 analysis library (performance
  portability, code divergence, cascade/navigation charts, Table 2),
- :mod:`repro.experiments` -- regenerators for every table and figure
  of the paper's evaluation.

Importing the package loads nothing else: each layer is imported by
name, so a run pays only for the layers it uses.
"""

__version__ = "1.0.0"
