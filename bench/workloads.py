"""The four workloads: what each runs, times and checks.

Every workload makes its inputs from the seed alone, and the program
only ever sees the generated config or specs.  The protocol ``run.py``
drives is the same for all of them::

    w = WORKLOADS[name][1](seed)
    w.reference()              # untimed, untraced: what the checks compare against
    w.setup(workdir)           # what setup_s times: imports up to "first unit possible"
    outcome = w.run(seconds, instrumentation_or_None)

``run`` does whole units until ``seconds`` have passed: steps, recovered
runs, or rounds of submissions.  The step workloads do not count the
first step of their driver, neither in the samples nor in the seconds:
it costs 2-3x a steady step and is reported as ``timestep.first_step_s``.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import random
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Any

from spans import median

#: ``timestep.closure_frac`` the traced pass must reach on the step workloads
CLOSURE_FLOOR = 0.95
#: completed steps after which ``state_sha256`` is taken: both passes of a
#: step workload always get this far, however fast the machine
SHA_AFTER_STEPS = 2


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    #: wall seconds of each measured unit (a step, a run, an executed job)
    unit_s: list[float]
    #: units completed per second of measuring
    units_per_s: float
    #: steps, runs or submissions tried, warm-up included
    attempted: int
    #: one message per step/run/job that raised, was refused or failed a check
    failures: list[str]
    #: sample counts and the values that must repeat exactly between runs
    detail: dict[str, Any] = field(default_factory=dict)
    #: per-layer values only the workload can know (traced pass)
    layer: dict[str, float] = field(default_factory=dict)


def state_sha256(driver) -> str:
    """sha256 of (positions, velocities, u): bit-identity of two runs."""
    import numpy as np

    p = driver.particles
    digest = hashlib.sha256()
    for array in (p.positions, p.velocities, p.u):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _diagnostics_finite(diagnostics) -> bool:
    return all(
        math.isfinite(d.a)
        and math.isfinite(d.kinetic_energy)
        and math.isfinite(d.thermal_energy)
        and math.isfinite(d.max_density_contrast)
        and all(math.isfinite(x) for x in d.total_momentum)
        for d in diagnostics
    )


# -- grav_default, hydro_fine ---------------------------------------------
class StepWorkload:
    """One ``AdiabaticDriver`` stepped by hand; the unit is a step."""

    def __init__(self, seed: int, *, traced_steps: int, **config: Any):
        self.seed = seed
        self.config = config
        #: steps the traced pass records spans for (the first included);
        #: a fixed count, so that per-step pair counts repeat exactly
        self.traced_steps = traced_steps

    def reference(self) -> None:
        pass

    def setup(self, workdir: str) -> None:
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        self.driver = AdiabaticDriver(SimulationConfig(seed=self.seed, **self.config))

    def run(self, seconds: float, instr) -> Outcome:
        from repro.hacc.validation import validate_run
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracing import TraceRecorder

        driver = self.driver
        schedule = driver.schedule()
        failures: list[str] = []
        wall: list[float] = []
        kinds: list[str] = []
        sha = None
        deadline = math.inf
        attempted = 0
        while driver.step_index < driver.config.n_steps:
            i = driver.step_index
            traced = instr is not None and i < self.traced_steps
            if not traced and i >= SHA_AFTER_STEPS and time.perf_counter() >= deadline:
                break
            # after the traced steps, what is left of the time measures the
            # program's own tracer + metrics: attached on every other step
            observed = instr is not None and not traced and (i - self.traced_steps) % 2 == 0
            if instr is not None:
                if not traced:
                    instr.remove()
                instr.tracer.default_trace_id = f"step{i}"
            driver.tracer = TraceRecorder() if observed else None
            driver.metrics = MetricsRegistry() if observed else None
            attempted += 1
            t0 = time.perf_counter()
            try:
                driver.step(float(schedule[i]), float(schedule[i + 1]))
            except Exception as exc:  # noqa: BLE001 - a failed step is counted, not fatal
                failures.append(f"step {i} raised {exc!r}")
                break
            wall.append(time.perf_counter() - t0)
            kinds.append(
                "first" if i == 0 else "traced" if traced else "observed" if observed else "plain"
            )
            if i == 0:
                deadline = time.perf_counter() + seconds
            if driver.step_index == SHA_AFTER_STEPS:
                sha = state_sha256(driver)

        report = validate_run(driver)
        if not report.ok:
            failures.append(report.summary())
        if not _diagnostics_finite(driver.diagnostics):
            failures.append("non-finite step diagnostics")

        def of(*wanted: str) -> list[float]:
            return [w for w, kind in zip(wall, kinds) if kind in wanted]

        # the measured pass has only first and plain steps; the traced pass
        # reports its steady steps whatever was attached to them
        steady = of("traced", "observed", "plain")
        overhead = 0.0
        if of("observed") and of("plain"):
            overhead = median(of("observed")) / median(of("plain")) - 1.0
        return Outcome(
            unit_s=steady,
            units_per_s=len(steady) / sum(steady) if steady else 0.0,
            attempted=attempted,
            failures=failures,
            detail={
                "state_sha256": sha,
                "steps": driver.step_index,
                "first_step_s": wall[0] if wall else None,
            },
            layer={"observability.trace_overhead_frac": overhead},
        )


# -- resilient_ranks ------------------------------------------------------
class ResilientRanks:
    """``run_simulation`` on two replicated ranks through a kill and a
    corrupted kernel; the unit is one run to a validated final state."""

    FAULTS = "kill:rank=1,step=3;corrupt:kernel=upBarAc,step=6,rank=0,mode=nan"
    WORLD_SIZE = 2
    ATTEMPTS = 3

    def __init__(self, seed: int):
        self.seed = seed

    def _config(self):
        from repro.hacc.timestep import SimulationConfig

        return SimulationConfig(n_per_side=8, n_steps=8, seed=self.seed)

    def reference(self) -> None:
        """The fault-free single-rank run every recovered run must equal."""
        from repro.hacc.timestep import AdiabaticDriver

        driver = AdiabaticDriver(self._config())
        t0 = time.perf_counter()
        self.reference_diagnostics = driver.run()
        self.reference_s = time.perf_counter() - t0

    def setup(self, workdir: str) -> None:
        from repro.resilience import FaultPlan, RetryPolicy, run_simulation

        self.workdir = workdir
        self.run_simulation = run_simulation
        self.kwargs = dict(
            world_size=self.WORLD_SIZE,
            checkpoint_every=1,
            fault_plan=FaultPlan.parse(self.FAULTS, seed=self.seed),
            retry_policy=RetryPolicy(max_retries=3),
        )
        self.sim_config = self._config()

    def _same_as_reference(self, diagnostics) -> bool:
        import numpy as np

        reference = self.reference_diagnostics
        return len(diagnostics) == len(reference) and all(
            (d.a, d.kinetic_energy, d.thermal_energy, d.max_density_contrast)
            == (r.a, r.kinetic_energy, r.thermal_energy, r.max_density_contrast)
            and np.array_equal(d.total_momentum, r.total_momentum)
            for d, r in zip(diagnostics, reference)
        )

    def run(self, seconds: float, instr) -> Outcome:
        walls: list[float] = []
        attempts: list[int] = []
        failures: list[str] = []
        deadline = time.perf_counter() + seconds
        rep = 0
        while rep == 0 or time.perf_counter() < deadline:
            if instr is not None:
                instr.tracer.default_trace_id = f"run{rep}"
            checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir)
            t0 = time.perf_counter()
            try:
                result = self.run_simulation(
                    self.sim_config, checkpoint_dir=checkpoint_dir, **self.kwargs
                )
            except Exception as exc:  # noqa: BLE001 - a lost run is counted, not fatal
                failures.append(f"run {rep} raised {exc!r}")
            else:
                walls.append(time.perf_counter() - t0)
                attempts.append(len(result.attempts))
                if not (result.ok and result.recovered):
                    failures.append(f"run {rep}: {result.summary()}")
                elif len(result.attempts) != self.ATTEMPTS:
                    failures.append(f"run {rep}: {len(result.attempts)} attempts")
                elif not self._same_as_reference(result.driver.diagnostics):
                    failures.append(f"run {rep}: diagnostics differ from the reference")
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
            rep += 1
        return Outcome(
            unit_s=walls,
            units_per_s=len(walls) / sum(walls) if walls else 0.0,
            attempted=rep,
            failures=failures,
            detail={"runs": len(walls), "reference_s": self.reference_s},
            layer={
                "units": len(walls),
                "world_steps": self.WORLD_SIZE * self.sim_config.n_steps,
                "resilience.attempts": median(attempts),
                "resilience.overhead_frac": (
                    median(walls) / self.reference_s - 1.0 if walls else 0.0
                ),
            },
        )


# -- service_mix ----------------------------------------------------------
class ServiceMix:
    """An in-process ``SimulationService`` under a closed loop of two
    clients, each awaiting its result before the next submit.

    Submissions come in rounds.  A round is every entry of ``MIX`` once,
    with IC seeds no earlier round used, and each of those specs
    ``REPEATS`` more times, shuffled: 75 % duplicates, which the service
    answers from its cache or by coalescing.  Every round holds the same
    work, so throughput is reported per round and does not depend on how
    many rounds fit into the time.

    ``MIX`` holds (7, 2) and (8, 2) twice: a job's cost is set by its
    (n_per_side, n_steps), so the executed jobs' latencies form one
    cluster per combination, and with these weights the median lies
    inside the (7, 2) cluster and the 80th percentile inside the (8, 2)
    cluster instead of in the gap between two, where it would jump.
    """

    MIX = ((5, 2), (5, 3), (6, 2), (6, 3), (7, 2), (7, 2), (7, 3), (8, 2), (8, 2), (8, 3))
    PRODUCTS = (
        ("diagnostics",),
        ("diagnostics", "power_spectrum"),
        ("diagnostics", "halo_catalog"),
    )
    REPEATS = 3
    CLIENTS = 2
    WORKERS = 2

    def __init__(self, seed: int):
        self.seed = seed

    def reference(self) -> None:
        pass

    def setup(self, workdir: str) -> None:
        from repro.service import ServiceConfig, SimulationService

        self.service = SimulationService(
            ServiceConfig(workers=self.WORKERS, checkpoint_dir=workdir)
        )

    def round_specs(self, k: int) -> list:
        from repro.service import JobSpec

        specs = [
            JobSpec(
                n_per_side=n,
                n_steps=steps,
                # distinct for every (benchmark seed, round, entry)
                seed=(self.seed * 1_000_003 + k) * len(self.MIX) + i,
                products=self.PRODUCTS[i % len(self.PRODUCTS)],
            )
            for i, (n, steps) in enumerate(self.MIX)
        ]
        sequence = specs * (1 + self.REPEATS)
        random.Random(f"{self.seed}:{k}").shuffle(sequence)
        return sequence

    async def _round(self, k: int, subscribe: bool) -> tuple[float, list[dict[str, Any]]]:
        pending = iter(self.round_specs(k))
        records: list[dict[str, Any]] = []

        async def client() -> None:
            for spec in pending:
                record: dict[str, Any] = {"spec": spec, "submitted": time.perf_counter()}
                records.append(record)
                try:
                    job = await self.service.submit(spec)
                    record["admitted"] = time.perf_counter()
                    record["coalesced"] = job.leader is not None
                    if subscribe and not job.future.done():
                        if await job.subscribe().get() is not None:
                            record["first_event"] = time.perf_counter()
                    record["result"] = await job.future
                except Exception as exc:  # noqa: BLE001 - a failed job is counted
                    record["error"] = repr(exc)
                record["done"] = time.perf_counter()

        t0 = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
        return time.perf_counter() - t0, records

    async def _serve(self, seconds: float, tracer) -> list[tuple[float, list[dict[str, Any]]]]:
        await self.service.start()
        try:
            rounds = []
            deadline = time.perf_counter() + seconds
            while not rounds or time.perf_counter() < deadline:
                if tracer is not None:
                    tracer.default_trace_id = f"round{len(rounds)}"
                rounds.append(await self._round(len(rounds), subscribe=tracer is not None))
            return rounds
        finally:
            await self.service.shutdown()

    def _check(self, records: list[dict[str, Any]], failures: list[str]) -> None:
        import numpy as np

        first_diagnostics: dict[str, dict] = {}
        for record in records:
            spec = record["spec"]
            if "error" in record:
                failures.append(f"job {spec.short_hash()} failed: {record['error']}")
                continue
            result = record["result"]
            if set(result.products) != set(spec.products):
                failures.append(f"job {spec.short_hash()}: products {sorted(result.products)}")
            elif result.steps_completed != spec.n_steps:
                failures.append(f"job {spec.short_hash()}: {result.steps_completed} steps")
            else:
                seen = first_diagnostics.setdefault(
                    result.spec_hash, result.products["diagnostics"]
                )
                mine = result.products["diagnostics"]
                if seen.keys() != mine.keys() or not all(
                    np.array_equal(seen[key], mine[key]) for key in seen
                ):
                    failures.append(f"job {spec.short_hash()}: repeat differs from first result")

    def run(self, seconds: float, instr) -> Outcome:
        from repro.hacc.sph.pairs import CutoffTruncationWarning

        tracer = instr.tracer if instr is not None else None
        with warnings.catch_warnings():
            # the issue's pool includes n_per_side=5, whose SPH support exceeds
            # the minimum-image bound (an open ROADMAP item); once per job is noise
            warnings.simplefilter("ignore", CutoffTruncationWarning)
            rounds = asyncio.run(self._serve(seconds, tracer))

        failures: list[str] = []
        executed_s: list[float] = []
        hit_s: list[float] = []
        admission, queue_wait, executed_per_round, coalesced_per_round = [], [], [], []
        by_combination: dict[str, list[float]] = {}
        for k, (_wall, records) in enumerate(rounds):
            self._check(records, failures)
            done = [r for r in records if "result" in r]
            executed = [r for r in done if not r["result"].from_cache and not r["coalesced"]]
            if len(executed) != len(self.MIX):
                failures.append(f"round {k}: {len(executed)} jobs executed, not {len(self.MIX)}")
            executed_per_round.append(len(executed))
            coalesced_per_round.append(sum(r["coalesced"] for r in done))
            for r in executed:
                took = r["done"] - r["submitted"]
                executed_s.append(took)
                by_combination.setdefault(
                    f"{r['spec'].n_per_side}x{r['spec'].n_steps}", []
                ).append(took)
            hit_s += [r["done"] - r["submitted"] for r in done if r["result"].from_cache]
            admission += [r["admitted"] - r["submitted"] for r in done]
            queue_wait += [
                r["first_event"] - r["submitted"] for r in executed if "first_event" in r
            ]
        submissions = sum(len(records) for _wall, records in rounds)
        round_s = [wall for wall, _records in rounds]
        return Outcome(
            unit_s=executed_s,
            units_per_s=median([len(records) / wall for wall, records in rounds]),
            attempted=submissions,
            failures=failures,
            detail={
                "rounds": len(rounds),
                "submissions": submissions,
                "round_s": median(round_s),
                "latency_by_combination_s": {
                    key: median(values) for key, values in sorted(by_combination.items())
                },
            },
            layer={
                "units": submissions,
                "service.submit_s": median(admission),
                "service.hit_latency_p50_s": median(hit_s),
                "service.queue_wait_s": median(queue_wait),
                "service.executed_jobs": median(executed_per_round),
                "service.cache_hit_frac": len(hit_s) / submissions,
                "service.coalesced": median(coalesced_per_round),
                "service.cache_bytes": self.service.cache.stats().bytes,
                "service.worker_busy_frac": sum(executed_s) / (self.WORKERS * sum(round_s)),
            },
        )


#: name -> (why it is in the benchmark, how to make it from a seed)
WORKLOADS = {
    "grav_default": (
        "default config at n=12: short-range gravity and its dense pair search are ~70 % "
        "of a step, SPH ~30 %; mesh/cutoff and pair-search work shows here most, SPH or xp work least",
        lambda seed: StepWorkload(seed, traced_steps=4, n_per_side=12, n_steps=10),
    ),
    "hydro_fine": (
        "same particles with pm_mesh=48: the cell path is taken, SPH pair context and kernels "
        "are ~83 % of a step, gravity ~15 %; kernel and backend work shows here, a gravity retune must not",
        lambda seed: StepWorkload(seed, traced_steps=8, n_per_side=12, pm_mesh=48, n_steps=24),
    ),
    "resilient_ranks": (
        "the same step code on two rank threads with guards, a checkpoint per step and two restores: "
        "a step gain bought with cross-step cached state, bigger checkpoints or lost overlap shows as a loss",
        ResilientRanks,
    ),
    "service_mix": (
        "many short drivers behind the scheduler, 75 % duplicate specs: construction, cold first steps, "
        "hashing and cache dominate, so work moved into set-up or added per job shows here only",
        ServiceMix,
    ),
}
