"""The P3 analysis core: the paper's headline metrics and plots.

- :mod:`repro.core.metrics` -- the performance-portability metric PP
  (Equation 1) and application efficiency,
- :mod:`repro.core.divergence` -- code divergence / convergence
  (Equations 2-3),
- :mod:`repro.core.sloc` -- the Code Base Investigator substitute
  (preprocessor-aware SLOC platform sets, Table 2),
- :mod:`repro.core.codebase` -- a generator for the CRK-HACC codebase
  model analysed by :mod:`~repro.core.sloc`,
- :mod:`repro.core.cascade` -- cascade-plot data (Figure 12),
- :mod:`repro.core.navigation` -- navigation-chart data (Figure 13),
- :mod:`repro.core.specialization` -- the stitched configurations
  (Select+Memory, Select+vISA, Unified) of Section 6.

Importing the package loads nothing; import the submodule you use.
"""
