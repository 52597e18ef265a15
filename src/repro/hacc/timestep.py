"""The adiabatic time stepper: CRK-HACC's dynamical loop.

The driver advances the two-species system with a comoving
kick-drift-kick leapfrog over the paper's schedule (five steps from
z = 200 to z = 50, Section 3.4.3) and calls the hot kernels in the
pattern that produces the paper's seven GPU timers:

    upGeo -> upCor -> upBarEx -> upBarAc -> upBarDu
        (kick, drift)
    upBarAcF -> upBarDuF
        (final half kick)

Physics and performance are decoupled: the driver *computes* with the
vectorised NumPy kernels and *records* a :class:`WorkloadTrace` of
kernel invocations (work-items and interactions per work-item).  The
trace is replayed on the virtual GPUs by
:mod:`repro.kernels.adiabatic`, which is how one physics run prices
every device x variant combination of the paper's study.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.hacc import eos
from repro.hacc.cosmology import Cosmology
from repro.hacc.ic import ICConfig, zeldovich_ics
from repro.hacc.neighbors import CellListCache
from repro.hacc.particles import ParticleData, Species
from repro.hacc.pm import PMConfig, PMSolver
from repro.hacc.short_range import ShortRangeSolver
from repro.hacc.sph.acceleration import compute_acceleration
from repro.hacc.sph.corrections import CorrectionResult, compute_corrections
from repro.hacc.sph.energy import compute_energy_rate
from repro.hacc.sph.extras import compute_extras
from repro.hacc.sph.geometry import compute_geometry
from repro.hacc.sph.pairs import PairContext
from repro.observability.metrics import INTERACTIONS_BUCKETS, MetricsRegistry
from repro.observability.tracing import TraceRecorder, maybe_span

#: paper timer names, in call order within one step
TIMER_NAMES = (
    "upGeo",
    "upCor",
    "upBarEx",
    "upBarAc",
    "upBarDu",
    "upBarAcF",
    "upBarDuF",
)
#: the short-range gravity kernel (part of "all GPU kernels" but not of
#: the five hydro hotspots)
GRAVITY_KERNEL = "upGravSR"


@dataclass(frozen=True)
class KernelInvocation:
    """Workload of one GPU kernel launch."""

    name: str
    n_workitems: int
    interactions_per_item: float


@dataclass
class WorkloadTrace:
    """Record of every offloaded kernel launch in a run."""

    invocations: list[KernelInvocation] = field(default_factory=list)

    def record(self, name: str, n_workitems: int, interactions_per_item: float) -> None:
        if n_workitems <= 0:
            return
        self.invocations.append(
            KernelInvocation(name, int(n_workitems), float(interactions_per_item))
        )

    def by_kernel(self) -> dict[str, list[KernelInvocation]]:
        out: dict[str, list[KernelInvocation]] = {}
        for inv in self.invocations:
            out.setdefault(inv.name, []).append(inv)
        return out

    def total_interactions(self) -> float:
        return sum(i.n_workitems * i.interactions_per_item for i in self.invocations)


@dataclass(frozen=True)
class SimulationConfig:
    """The scaled-down analogue of the paper's test problem.

    The paper runs 2x 512^3 particles over 8 ranks in a 177 Mpc/h box;
    we default to 2x 16^3 in a box scaled to preserve the mass
    resolution (box = 177 * n/512), exactly the paper's scaling rule
    (Section 3.4.2).
    """

    n_per_side: int = 16
    z_initial: float = 200.0
    z_final: float = 50.0
    n_steps: int = 5
    seed: int = 2023
    #: PM mesh cells per side; ``None`` is four per particle spacing,
    #: the knee of the measured step time (a 1.4-spacing short-range
    #: cutoff: inside the minimum-image bound, and a cell search from 6
    #: per side up); the driver refuses an explicit mesh below 12
    pm_mesh: int | None = None
    #: CFL number for the hydro time-step criterion
    cfl_number: float = 0.25
    #: cap on CFL-driven hydro substeps per gravity step (HACC's stepping
    #: structure); 1 is the paper's five-step adiabatic run
    max_subcycles: int = 1

    def __post_init__(self):
        if self.pm_mesh is None:
            object.__setattr__(self, "pm_mesh", 4 * self.n_per_side)

    @property
    def box(self) -> float:
        return 177.0 * self.n_per_side / 512.0

    def ic_config(self) -> ICConfig:
        return ICConfig(
            n_per_side=self.n_per_side,
            box=self.box,
            z_initial=self.z_initial,
            seed=self.seed,
        )


@dataclass
class StepDiagnostics:
    """Per-step conservation and state diagnostics."""

    a: float
    kinetic_energy: float
    thermal_energy: float
    total_momentum: np.ndarray
    max_density_contrast: float


#: ``observe(timer, evaluate, *outputs)`` runs one kernel evaluation and
#: returns its result, of which the attributes ``outputs`` are what an
#: observer may see; what else happens around it is the caller's business
KernelObserver = Callable[..., Any]


def hydro_state(
    ctx: PairContext, p: ParticleData, idx: np.ndarray, observe: KernelObserver
) -> tuple[CorrectionResult, np.ndarray]:
    """upGeo -> upCor -> upBarEx -> EOS refresh on the gas rows ``idx``
    of ``p``, whose pair context is ``ctx``; volume, smoothing length,
    density, pressure and sound speed are updated in place.

    The one definition of the hydro pass, with :func:`hydro_force`: the
    driver's opening pass and the standalone replay both run it, each
    with its own ``observe``.  Returns the coefficients and the per-pair
    grad W^R that upBarEx evaluated on ``(ctx, h, corr)``.
    """
    geo = observe(
        "upGeo", lambda: compute_geometry(ctx, p.hsml[idx]), "volume", "h_new"
    )
    p.volume[idx] = geo.volume
    p.hsml[idx] = h = geo.h_new
    corr = observe("upCor", lambda: compute_corrections(ctx, h, geo.volume), "a", "b")
    extras = observe(
        "upBarEx",
        lambda: compute_extras(
            ctx, h, geo.volume, p.mass[idx], p.velocities[idx], p.pressure[idx], corr
        ),
        "rho", "grad_rho", "div_v", "grad_p",
    )
    p.rho[idx] = extras.rho
    eos.update_thermodynamics(p)
    return corr, extras.grad_w


def hydro_force(
    ctx: PairContext,
    p: ParticleData,
    idx: np.ndarray,
    corr: CorrectionResult,
    observe: KernelObserver,
    grad_w: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """upBarAc -> upBarDu on the gas rows ``idx`` of ``p``: all-particle
    (dv_dt, du_dt), zero on dark matter, and the max signal speed.
    ``grad_w`` is :func:`hydro_state`'s when ``(ctx, h, corr)`` are the
    ones it was evaluated on, else ``None``."""
    h, volume, mass = p.hsml[idx], p.volume[idx], p.mass[idx]
    pressure, vel = p.pressure[idx], p.velocities[idx]
    accel = observe(
        "upBarAc",
        lambda: compute_acceleration(
            ctx, h, volume, mass, p.rho[idx], pressure, p.cs[idx], vel, corr, grad_w
        ),
        "dv_dt",
    )
    energy = observe(
        "upBarDu",
        lambda: compute_energy_rate(ctx, volume, mass, pressure, vel, accel),
        "du_dt",
    )
    dv_dt = np.zeros((len(p), 3))
    du_dt = np.zeros(len(p))
    dv_dt[idx] = accel.dv_dt
    du_dt[idx] = energy.du_dt
    return dv_dt, du_dt, accel.max_signal_speed


class AdiabaticDriver:
    """Runs the adiabatic mini-app and records the workload trace.

    Resilience hooks: :attr:`kernel_hook`, when set, is called as
    ``hook(name, step_index, outputs)`` immediately after each hot
    kernel completes and *before* its outputs are consumed downstream.
    ``outputs`` maps output names to the live arrays, so the hook can
    both screen them (in-flight NaN/Inf guards) and mutate them in
    place (deterministic fault injection).  :attr:`step_index` counts
    completed steps and, together with :meth:`restore`, supports
    restarting a run mid-schedule from a
    :class:`~repro.resilience.restart.SimulationCheckpoint`.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        cosmology: Cosmology | None = None,
        particles: ParticleData | None = None,
    ):
        self.config = config or SimulationConfig()
        self.cosmology = cosmology or Cosmology()
        if particles is None:
            particles = zeldovich_ics(self.config.ic_config(), self.cosmology)
        self.particles = particles
        self.pm = PMSolver(self.config.box, PMConfig(n_mesh=self.config.pm_mesh))
        self.short_range = ShortRangeSolver(
            self.config.box, self.pm.split_scale, self.pm.cutoff
        )
        #: builds (and counts) the cell list of every pair search: one
        #: per gravity state searched, one per SPH pair context built
        self.pair_cache = CellListCache(self.config.box)
        #: (box, positions, h, context) of the last gas state: see _gas_view
        self._gas_context: tuple | None = None
        self.trace = WorkloadTrace()
        self.diagnostics: list[StepDiagnostics] = []
        #: completed steps of the configured schedule
        self.step_index = 0
        self._schedule: np.ndarray | None = None
        #: the run's stochastic stream (seeded; captured by checkpoints)
        self.rng = np.random.default_rng(self.config.seed)
        #: resilience hook: hook(kernel_name, step_index, {name: array})
        self.kernel_hook: Callable[[str, int, dict[str, np.ndarray]], None] | None = None
        #: observability sinks: when set, the driver opens a span per
        #: step and per hot-kernel call, and counts launches and
        #: interactions (see repro.observability)
        self.tracer: TraceRecorder | None = None
        self.metrics: MetricsRegistry | None = None
        #: health monitor: when set, its ``observe_step(driver, diag,
        #: wall_seconds)`` runs after every completed step (duck-typed;
        #: see repro.observability.health.HealthMonitor)
        self.health: Any | None = None
        #: hydro subcycles taken by the most recent step (the
        #: timestep-collapse health series)
        self.last_subcycles = 1

    def restore(
        self,
        *,
        particles: ParticleData,
        step_index: int,
        trace: WorkloadTrace | None = None,
        diagnostics: list[StepDiagnostics] | None = None,
        rng_state: dict[str, Any] | None = None,
    ) -> None:
        """Reset the driver to a checkpointed mid-run state."""
        if not 0 <= step_index <= self.config.n_steps:
            raise ValueError(
                f"step index {step_index} outside the "
                f"{self.config.n_steps}-step schedule"
            )
        self.particles = particles
        self.step_index = int(step_index)
        if trace is not None:
            self.trace = trace
        if diagnostics is not None:
            self.diagnostics = diagnostics
        if rng_state is not None:
            self.rng.bit_generator.state = rng_state

    def _record_kernel(
        self,
        name: str,
        n_workitems: int,
        per_item: float,
        outputs: dict[str, np.ndarray],
    ) -> None:
        """Record one kernel launch and run the resilience hook on its
        freshly produced outputs (before anything consumes them)."""
        self.trace.record(name, n_workitems, per_item)
        if self.metrics is not None and n_workitems > 0:
            self.metrics.counter("sim.kernel.launches").inc()
            self.metrics.counter("sim.kernel.interactions").inc(
                n_workitems * per_item
            )
            self.metrics.histogram(
                "sim.kernel.interactions_per_item", INTERACTIONS_BUCKETS
            ).observe(per_item)
        if self.kernel_hook is not None:
            self.kernel_hook(name, self.step_index, outputs)

    def _kernel_span(self, name: str):
        """Wall-clock span around one hot-kernel evaluation."""
        return maybe_span(self.tracer, name, category="kernel", step=self.step_index)

    # Velocity variable convention: the particle "velocities" are the
    # canonical momenta p = a^2 dx/dt (GADGET convention), which pairs
    # with the comoving potential without explicit a factors, the kick
    # integral int dt/a, and the drift integral int dt/a^2.
    # ------------------------------------------------------------------
    def _gravity(self) -> np.ndarray:
        """Total gravitational acceleration; records the GPU kernel."""
        with self._kernel_span(GRAVITY_KERNEL):
            acc = self.pm.accelerations(self.particles)  # host-side FFT
            acc += self.short_range.accelerations(self.particles, cells=self.pair_cache)
            n = len(self.particles)
            # reuses the memoised pair list the accelerations just built
            pair_count = self.short_range.interaction_count(self.particles)
            self._record_kernel(GRAVITY_KERNEL, n, pair_count / max(1, n), {"acc": acc})
        return acc

    def _gas_view(self) -> tuple[np.ndarray, PairContext]:
        """Gas row indices and the pair context of the current gas state.

        A context is a function of (positions, ``h``, box), and the
        post-drift pass of one step and the opening pass of the next
        see the same three: the last context is kept and returned when
        they are equal *by value* (the key arrays are this method's own
        copies), so a steady step builds one.  A restored or
        rolled-back state simply misses.  The cell list is binned over
        the gas positions alone, at the SPH cutoff.
        """
        p = self.particles
        idx = np.nonzero(p.species_mask(Species.BARYON))[0]
        pos, h = p.positions[idx], p.hsml[idx]
        if self._gas_context is not None:
            box, kept_pos, kept_h, ctx = self._gas_context
            if (
                box == p.box
                and np.array_equal(kept_pos, pos)
                and np.array_equal(kept_h, h)
            ):
                return idx, ctx
            # dropped (this local too) before its successor is built
            del ctx
            self._gas_context = None
        ctx = PairContext.build(
            pos, h, p.box, cells=self.pair_cache, metrics=self.metrics
        )
        self._gas_context = (p.box, pos, h, ctx)
        return idx, ctx

    def _observe(
        self, suffix: str, ctx: PairContext, timer: str, evaluate, *outputs: str
    ) -> Any:
        """The driver's view of one kernel evaluation on ``ctx``: its
        span, its launch record and the resilience hook on the fresh
        ``outputs``, under ``timer + suffix`` ("F" for the post-drift
        pass, reproducing the paper's doubled timers).  A method handed
        out as a ``functools.partial``, not a closure over ``self``: a
        frame keeps its function alive, and an exception raised by the
        hook must not pin the driver."""
        with self._kernel_span(timer + suffix):
            result = evaluate()
            live = {name: getattr(result, name) for name in outputs}
            self._record_kernel(timer + suffix, ctx.n, ctx.mean_neighbors(), live)
        return result

    # ------------------------------------------------------------------
    def cfl_subcycles(self, max_signal_speed: float, drift: float) -> int:
        """Hydro substeps required by the CFL condition.

        The sound/viscous signal must not cross more than ``cfl_number``
        of a smoothing length per hydro substep.  Clamped to
        ``max_subcycles`` (HACC caps the subcycle depth too).
        """
        p = self.particles
        gas = p.species_mask(Species.BARYON)
        if not gas.any() or max_signal_speed <= 0:
            return 1
        h_min = float(p.hsml[gas].min())
        if h_min <= 0:
            return 1
        allowed = self.config.cfl_number * h_min / max_signal_speed
        needed = int(np.ceil(drift / max(allowed, 1e-300)))
        return int(np.clip(needed, 1, self.config.max_subcycles))

    def step(self, a0: float, a1: float) -> StepDiagnostics:
        """One KDK step from scale factor a0 to a1.

        Gravity kicks on the outer step; the hydro forces are re-evaluated
        on up to ``config.max_subcycles`` CFL-sized substeps inside it --
        how tighter time-step criteria "lead to many more calls to the
        adiabatic kernels" (Section 3.1).
        """
        # mirror the cell-list build count into whatever registry the
        # caller attached after construction
        self.pair_cache.metrics = self.metrics
        wall_start = time.perf_counter()
        with maybe_span(
            self.tracer,
            f"step {self.step_index}",
            category="step",
            a0=a0,
            a1=a1,
        ):
            diag = self._kdk(a0, a1)
        if self.metrics is not None:
            self.metrics.counter("sim.steps").inc()
        if self.health is not None:
            # observe *before* the index bump so alert steps match the
            # step that produced the state
            self.health.observe_step(
                self, diag, wall_seconds=time.perf_counter() - wall_start
            )
        self.step_index += 1
        return diag

    def _kdk(self, a0: float, a1: float) -> StepDiagnostics:
        """Gravity half kicks around the CFL-driven hydro subcycles."""
        p = self.particles
        cosmo = self.cosmology
        kick_half = cosmo.kick_factor(a0, a1) * 0.5
        drift_total = cosmo.drift_factor(a0, a1)

        # gravity half kick (gravity stays on the outer step)
        grav = self._gravity()
        idx, ctx = self._gas_view()
        observe = functools.partial(self._observe, "", ctx)
        # the post-drift passes reuse the coefficients (CRK-HACC's final
        # kick re-evaluates only the force kernels); the per-pair
        # gradient goes from upBarEx to this pass's upBarAc only
        corr, grad_w = hydro_state(ctx, p, idx, observe)
        dv_h, du_h, sig = hydro_force(ctx, p, idx, corr, observe, grad_w)
        # no local outlives the kept context's replacement
        del ctx, observe, grad_w
        n_sub = self.cfl_subcycles(sig, drift_total)
        self.last_subcycles = n_sub

        # every hydro kick, the opening one and each subcycle's, takes
        # the same substep share of the half-kick integral
        share = kick_half / n_sub
        vel = p.velocities + grav * kick_half + dv_h * share
        p.set_velocities(vel)
        p.u[:] = np.maximum(p.u + du_h * share, 0.0)

        # hydro subcycles: drift + force re-evaluation ("F" timers)
        for _sub in range(n_sub):
            pos = p.positions + p.velocities * (drift_total / n_sub)
            p.set_positions(pos % p.box)
            idx, ctx = self._gas_view()
            observe = functools.partial(self._observe, "F", ctx)
            dv_h, du_h, _sig = hydro_force(ctx, p, idx, corr, observe)
            del ctx, observe
            vel = p.velocities + dv_h * share
            p.set_velocities(vel)
            p.u[:] = np.maximum(p.u + du_h * share, 0.0)

        # gravity second half kick at the new positions
        grav = self._gravity()
        p.set_velocities(p.velocities + grav * kick_half)

        p.u[:] *= (a0 / a1) ** 2
        eos.update_thermodynamics(p)
        diag = self._diagnose(a1)
        self.diagnostics.append(diag)
        return diag

    def schedule(self) -> np.ndarray:
        """Scale-factor edges of the configured schedule (computed once
        per driver; read-only)."""
        if self._schedule is None:
            self._schedule = self.cosmology.step_schedule(
                self.config.z_initial, self.config.z_final, self.config.n_steps
            )
            self._schedule.setflags(write=False)
        return self._schedule

    @property
    def a(self) -> float:
        """Scale factor at :attr:`step_index`."""
        return float(self.schedule()[self.step_index])

    @property
    def finished(self) -> bool:
        """Has the configured schedule been walked to its end?"""
        return self.step_index >= self.config.n_steps

    def advance(self) -> StepDiagnostics | None:
        """Take the next step of the configured schedule from
        :attr:`step_index`; ``None`` (and no state change) once
        :attr:`finished`.  The one place the schedule is walked:
        :meth:`run`, the resilience runner and the service worker all
        advance a (possibly restored) driver through here.
        """
        if self.finished:
            return None
        schedule, i = self.schedule(), self.step_index
        return self.step(float(schedule[i]), float(schedule[i + 1]))

    def run(
        self,
        on_step: Callable[["AdiabaticDriver", StepDiagnostics], None] | None = None,
    ) -> list[StepDiagnostics]:
        """Run (or, after :meth:`restore`, resume) the configured
        schedule; returns per-step diagnostics.

        ``on_step(driver, diag)`` fires after each completed step —
        the periodic-checkpoint hook point.
        """
        while (diag := self.advance()) is not None:
            if on_step is not None:
                on_step(self, diag)
        return self.diagnostics

    # ------------------------------------------------------------------
    def _diagnose(self, a: float) -> StepDiagnostics:
        p = self.particles
        gas = p.species_mask(Species.BARYON)
        rho = p.rho[gas]
        rho_bar = rho.mean() if rho.size else 1.0
        return StepDiagnostics(
            a=a,
            kinetic_energy=p.kinetic_energy(),
            thermal_energy=p.thermal_energy(),
            total_momentum=p.total_momentum(),
            max_density_contrast=float(rho.max() / rho_bar - 1.0) if rho.size else 0.0,
        )
