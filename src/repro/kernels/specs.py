"""Workload characterizations of the hot kernels.

Each :class:`KernelSpec` records, per pair interaction, what one
work-item of the half-warp algorithm does: floating-point work, the
partner payload it must obtain from another lane, and the outputs it
eventually commits with atomics.  The numbers are derived from the
NumPy physics kernels in :mod:`repro.hacc.sph`:

- *payload words*: the fields of the partner particle entering the
  pair expression (position, h, volume, velocity, ... as applicable);
- *flops*: operation counts of the kernel/gradient evaluations
  (:data:`~repro.hacc.sph.kernels_math.W_FLOPS_PER_PAIR` etc.) plus
  the kernel-specific accumulation arithmetic;
- *output words*: the per-particle accumulators committed to global
  memory once per leaf-pair instance (atomic adds), plus any
  reduction-style atomics (the CFL signal-speed atomic min in
  Acceleration -- the float min/max that NVIDIA must CAS-emulate,
  Section 5.1);
- *registers*: live scalar state of one work-item in the half-warp
  form, and in the broadcast-restructured form (two particles live
  plus redundant intermediates -- Section 5.3.2).

Consistency between these counts and the physics implementations is
pinned by tests (e.g. payload words vs. the actual argument lists of
the :mod:`repro.hacc.sph` functions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hacc.sph.kernels_math import GRADW_FLOPS_PER_PAIR, W_FLOPS_PER_PAIR


@dataclass(frozen=True)
class KernelSpec:
    """Per-interaction workload of one hot kernel."""

    name: str
    #: timers this kernel feeds (Section 5.4 naming)
    timers: tuple[str, ...]
    #: FMAs per pair interaction
    fma_per_pair: float
    #: non-FMA flops per pair interaction
    flops_per_pair: float
    #: transcendental calls per pair interaction (sqrt, cbrt, divisions
    #: routed through the special-function unit)
    specials_per_pair: float
    #: integer/address ops per pair interaction
    int_ops_per_pair: float
    #: 32-bit words of partner state exchanged per interaction
    payload_words: int
    #: 32-bit words of per-particle output committed via atomic add
    output_words: int
    #: float atomic min/max per particle (CFL reductions)
    minmax_per_particle: float
    #: sub-group reductions per particle (group algorithms, Section 5.1)
    reduces_per_particle: float
    #: interactions between atomic commits of the accumulators.  The
    #: register-heavy kernels (Acceleration, Energy) cannot keep their
    #: accumulators live across the whole leaf pair and commit partial
    #: sums every few iterations -- these are the "large number of
    #: atomic updates" the paper attributes the broadcast variant's
    #: Aurora wins to (Section 5.4).
    atomic_interval: float
    #: live scalar registers, half-warp (exchange) formulation
    registers_halfwarp: int
    #: live scalar registers, broadcast-restructured formulation
    registers_broadcast: int
    #: of ``registers_halfwarp``, how many hold sub-group-uniform
    #: values (kernel constants, leaf base pointers).  On SIMD register
    #: files (Intel) uniform values live once per hardware thread, not
    #: once per lane, shrinking the per-work-item footprint.
    uniform_registers_halfwarp: int
    #: of ``registers_broadcast``, the uniform subset -- large, because
    #: the broadcast j-particle state is by construction uniform across
    #: the sub-group.  This is why the restructure fits on Aurora
    #: (16-wide sub-groups + large GRF) but spills on the A100, whose
    #: scalar register file must replicate it per lane.
    uniform_registers_broadcast: int
    #: flop inflation of the broadcast restructure (redundant symmetric
    #: evaluation replacing communicated intermediates)
    broadcast_flop_factor: float
    #: atomic reduction of the broadcast restructure (fewer scatter
    #: atomics, Section 5.3.2)
    broadcast_atomic_factor: float
    #: global bytes read per interaction (amortised over leaf reuse)
    global_bytes_per_pair: float
    #: interactions per payload exchange.  The hydro kernels rotate a
    #: fresh partner every iteration (1.0); the short-range gravity
    #: kernel loads its j-block once per leaf-pair instance and reuses
    #: it, so its exchange cost is amortised over the instance.
    exchange_interval: float = 1.0


# ---------------------------------------------------------------------------
# The five hot kernels (Section 5) + the short-range gravity kernel.
#
# Flop counts trace to the physics:
#   W evaluation            = W_FLOPS_PER_PAIR  (12)
#   grad W evaluation       = GRADW_FLOPS_PER_PAIR (18)
#   pair geometry (dx, r2, r)                ~ 10 flops + 1 sqrt
# ---------------------------------------------------------------------------
_PAIR_GEOMETRY_FLOPS = 10.0

GEOMETRY = KernelSpec(
    name="geometry",
    timers=("upGeo",),
    # W + number-density accumulation
    fma_per_pair=(W_FLOPS_PER_PAIR + _PAIR_GEOMETRY_FLOPS) / 2 + 1,
    flops_per_pair=4.0,
    specials_per_pair=1.0,  # the pair sqrt
    int_ops_per_pair=6.0,
    payload_words=4,   # x, y, z, h
    output_words=2,    # number density, h update
    minmax_per_particle=0.0,
    reduces_per_particle=1.0,  # sub-group sum of the density partials
    atomic_interval=16.0,
    registers_halfwarp=40,
    registers_broadcast=150,
    uniform_registers_halfwarp=14,
    uniform_registers_broadcast=50,
    broadcast_flop_factor=1.6,
    broadcast_atomic_factor=0.5,
    global_bytes_per_pair=4.0,
)

CORRECTIONS = KernelSpec(
    name="corrections",
    timers=("upCor",),
    # W + m0/m1/m2 accumulation: 1 + 3 + 6 unique tensor entries
    fma_per_pair=(W_FLOPS_PER_PAIR + _PAIR_GEOMETRY_FLOPS) / 2 + 10,
    flops_per_pair=8.0,
    specials_per_pair=1.0,
    int_ops_per_pair=8.0,
    payload_words=5,   # x, y, z, h, V
    output_words=10,   # m0, m1 (3), m2 (6 unique)
    minmax_per_particle=0.0,
    reduces_per_particle=2.0,
    atomic_interval=16.0,
    registers_halfwarp=90,
    registers_broadcast=220,
    uniform_registers_halfwarp=16,
    uniform_registers_broadcast=70,
    broadcast_flop_factor=1.6,
    broadcast_atomic_factor=0.4,
    global_bytes_per_pair=5.0,
)

#: the paper's Extras, gradients included; the runtime's compute_extras
#: forms rho alone, since nothing in the step reads the gradients
EXTRAS = KernelSpec(
    name="extras",
    timers=("upBarEx",),
    # grad W^R + three gradient accumulations (rho: 3, v: 9, P: 3)
    fma_per_pair=(GRADW_FLOPS_PER_PAIR + _PAIR_GEOMETRY_FLOPS) / 2 + 15,
    flops_per_pair=12.0,
    specials_per_pair=1.0,
    int_ops_per_pair=8.0,
    payload_words=9,   # x(3), h, V, v(3), P
    output_words=16,   # grad rho (3), grad v (9), grad P (3), rho
    minmax_per_particle=0.0,
    reduces_per_particle=2.0,
    atomic_interval=8.0,
    registers_halfwarp=80,
    registers_broadcast=200,
    uniform_registers_halfwarp=16,
    uniform_registers_broadcast=64,
    broadcast_flop_factor=1.7,
    broadcast_atomic_factor=0.35,
    global_bytes_per_pair=9.0,
)

ACCELERATION = KernelSpec(
    name="acceleration",
    timers=("upBarAc", "upBarAcF"),
    # both corrected gradients + viscosity + momentum accumulation
    fma_per_pair=2 * GRADW_FLOPS_PER_PAIR / 2 + _PAIR_GEOMETRY_FLOPS / 2 + 18,
    flops_per_pair=16.0,
    specials_per_pair=2.0,  # pair sqrt + viscosity division
    int_ops_per_pair=10.0,
    payload_words=12,  # x(3), h, V, v(3), P, rho, cs, m
    output_words=3,    # dv (3)
    minmax_per_particle=1.0,  # CFL signal-speed atomic min (Section 5.1)
    reduces_per_particle=1.0,
    atomic_interval=2.0,
    registers_halfwarp=110,
    registers_broadcast=300,
    uniform_registers_halfwarp=18,
    uniform_registers_broadcast=96,
    broadcast_flop_factor=1.35,
    broadcast_atomic_factor=0.3,
    global_bytes_per_pair=12.0,
)

ENERGY = KernelSpec(
    name="energy",
    timers=("upBarDu", "upBarDuF"),
    # reuses the antisymmetrised gradient; work term + accumulation
    fma_per_pair=GRADW_FLOPS_PER_PAIR / 2 + _PAIR_GEOMETRY_FLOPS / 2 + 10,
    flops_per_pair=10.0,
    specials_per_pair=1.0,
    int_ops_per_pair=8.0,
    payload_words=10,  # x(3), h, V, v(3), P, m
    output_words=1,    # du
    minmax_per_particle=1.0,  # energy-based time-step atomic min
    reduces_per_particle=1.0,
    atomic_interval=2.0,
    registers_halfwarp=96,
    registers_broadcast=270,
    uniform_registers_halfwarp=16,
    uniform_registers_broadcast=90,
    broadcast_flop_factor=1.35,
    broadcast_atomic_factor=0.3,
    global_bytes_per_pair=10.0,
)

GRAVITY = KernelSpec(
    name="gravity",
    timers=("upGravSR",),
    # polynomial force kernel (degree 5 Horner = 5 FMA) + pair geometry
    fma_per_pair=5 + _PAIR_GEOMETRY_FLOPS / 2 + 4,
    flops_per_pair=6.0,
    specials_per_pair=1.0,
    int_ops_per_pair=6.0,
    payload_words=4,   # x(3), m
    output_words=3,    # acceleration (3)
    minmax_per_particle=0.0,
    reduces_per_particle=0.0,
    atomic_interval=8.0,
    registers_halfwarp=48,
    registers_broadcast=120,
    uniform_registers_halfwarp=12,
    uniform_registers_broadcast=40,
    broadcast_flop_factor=1.5,
    broadcast_atomic_factor=0.5,
    global_bytes_per_pair=4.0,
    exchange_interval=16.0,
)

#: all kernels, in pipeline order
KERNEL_SPECS: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (GEOMETRY, CORRECTIONS, EXTRAS, ACCELERATION, ENERGY, GRAVITY)
}

#: timer name -> kernel spec name (the paper's upGeo/upCor/... mapping)
TIMER_TO_KERNEL: dict[str, str] = {
    timer: spec.name for spec in KERNEL_SPECS.values() for timer in spec.timers
}

#: the seven hydro timers of Figures 9-11
HOTSPOT_TIMERS = (
    "upGeo",
    "upCor",
    "upBarEx",
    "upBarAc",
    "upBarAcF",
    "upBarDu",
    "upBarDuF",
)
