"""Command-line interface: ``python -m repro <command>``.

Commands:

``simulate``   run the mini-app and print per-step diagnostics
``price``      price the reference workload on a device/model/variant
``tune``       auto-tune per-kernel configurations on a device
``migrate``    run the CUDA->SYCL pipeline over the bundled kernels
``report``     regenerate the full reproduction report (markdown)
``figures``    print every table and figure (the experiments runner)
``export``     write every artefact to one JSON document
``validate``   run the mini-app and audit its invariants
``roofline``   roofline positions of the hot kernels on a device
``trace``      run the mini-app and write its event log (events.jsonl)
``profile``    per-kernel, per-device profile table (cost-model annotated)
``dashboard``  render a recorded telemetry event log (JSONL) as a dashboard
``perfetto``   convert an event log to Chrome-trace JSON on stdout
"""

from __future__ import annotations

import argparse
import sys


def _observability_sinks(args: argparse.Namespace):
    """(tracer, metrics) when the run records an event log or a live
    dashboard, else (None, None)."""
    if not (args.events_out or getattr(args, "live", False)):
        return None, None
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracing import TraceRecorder

    return TraceRecorder(), MetricsRegistry()


def _write_observability(
    args: argparse.Namespace, tracer, metrics, monitor=None, alerts=None
) -> None:
    if not args.events_out:
        return
    from repro.observability.export import write_event_log

    path = write_event_log(
        args.events_out, tracer=tracer, metrics=metrics, monitor=monitor, alerts=alerts
    )
    print(
        f"event log written to {path} -- replay with: python -m repro dashboard "
        f"{path}; for Perfetto: python -m repro perfetto {path} > trace.json"
    )


#: what the run core uses for a flag its subcommand does not declare
_RUN_DEFAULTS = dict(
    ranks=1, faults=None, fault_seed=0, checkpoint_dir=None, checkpoint_every=1,
    restart_from=None, timeout=30.0, max_retries=3, degrade_policy="restart",
)


def _run(args: argparse.Namespace, tracer=None, metrics=None, on_step=None):
    """The run core of ``simulate``, ``trace`` and ``validate``.

    Shared argument validation -> ``SimulationConfig`` -> ``FaultPlan``
    -> the fault-tolerant runner on ``--ranks`` ranks (one by default;
    ``on_step(driver, diag)`` follows the agreed steps).  Returns
    ``(code, result)``: 2 for bad arguments (said on an ``error:``
    line), 1 for a lost or invalid run, else 0; the runner's result,
    None when the run was refused or lost.
    """
    from repro.hacc.timestep import SimulationConfig
    from repro import resilience

    opts = argparse.Namespace(**{**_RUN_DEFAULTS, **vars(args)})
    for bad, message in (
        # the default PM mesh (4 cells per particle spacing) puts the
        # short-range cutoff past the minimum-image bound below 3
        (opts.n < 3, "-n must be >= 3"),
        (opts.ranks < 1, "--ranks must be >= 1"),
        (opts.checkpoint_every < 1, "--checkpoint-every must be >= 1"),
        (opts.max_retries < 0, "--max-retries must be >= 0"),
        (opts.timeout <= 0, "--timeout must be positive"),
    ):
        if bad:
            print(f"error: {message}")
            return 2, None
    config = SimulationConfig(n_per_side=opts.n, n_steps=opts.steps)
    print(
        f"2x {opts.n}^3 particles, box {config.box:.2f} Mpc/h, "
        f"{opts.steps} steps z={config.z_initial:.0f} -> {config.z_final:.0f}"
    )
    fault_plan = None
    if opts.faults:
        try:
            fault_plan = resilience.FaultPlan.parse(opts.faults, seed=opts.fault_seed)
            fault_plan.check_ranks(opts.ranks)
        except ValueError as exc:
            print(f"error: invalid --faults plan: {exc}")
            return 2, None
        print(fault_plan.describe())
    try:
        result = resilience.run_simulation(
            config,
            world_size=opts.ranks,
            timeout=opts.timeout,
            checkpoint_dir=opts.checkpoint_dir,
            checkpoint_every=opts.checkpoint_every,
            restart_from=opts.restart_from,
            fault_plan=fault_plan,
            retry_policy=resilience.RetryPolicy(max_retries=opts.max_retries),
            degrade_policy=opts.degrade_policy,
            echo=print,
            tracer=tracer,
            metrics=metrics,
            on_step=on_step,
        )
    except resilience.CheckpointError as exc:
        print(f"error: cannot restart: {exc}")
        return 2, None
    except resilience.SimulationAborted as exc:
        print(f"simulation lost: {exc}")
        for rec in exc.attempts:
            print(f"  attempt {rec.attempt}: {rec.outcome} ({rec.failure})")
        return 1, None
    return (0 if result.ok else 1), result


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.chaos_runs:
        return _simulate_chaos(args)
    live = on_step = None
    if args.live:
        from repro.observability.dashboard import DashboardState, LiveDashboard
        from repro.observability.export import iter_events

        live = LiveDashboard()
        meta = {"title": f"simulate -n {args.n} --ranks {args.ranks}"}
        live.state.meta = meta

        def on_step(drv, diag) -> None:
            # observe_step ran inside step(), before the index bump
            step = drv.step_index - 1
            live.update(
                e for e in iter_events(monitor=drv.health) if e.get("step") == step
            )

    tracer, metrics = _observability_sinks(args)
    code, result = _run(args, tracer, metrics, on_step)
    if result is None:
        if code == 1:
            # a lost run is exactly when the telemetry matters most
            _write_observability(args, tracer, metrics)
        return code
    driver = result.driver
    for diag in driver.diagnostics:
        print(
            f"a={diag.a:.5f}  KE={diag.kinetic_energy:.4e}  "
            f"thermal={diag.thermal_energy:.4e}  "
            f"max_delta={diag.max_density_contrast:.2f}"
        )
    # the monitor belongs to the *final* (clean) attempt; the alerts of
    # every attempt live in health_alerts
    monitor, alerts = result.health_monitor, result.health_alerts
    print(result.summary())
    if alerts:
        print(f"health: {len(alerts)} alert(s) across all attempts")
        for alert in alerts:
            print(f"  {alert.describe()}")
    print(f"kernel launches recorded: {len(driver.trace.invocations)}")
    if live is not None:
        # the final frame holds every attempt's telemetry, not only the
        # steps the dashboard followed
        live.state = DashboardState()
        for event in iter_events(
            tracer=tracer, metrics=metrics, monitor=monitor, alerts=alerts, meta=meta
        ):
            live.state.apply(event)
        live.finish()
    _write_observability(args, tracer, metrics, monitor=monitor, alerts=alerts)
    return code


def _simulate_chaos(args: argparse.Namespace) -> int:
    """The ``simulate --chaos-runs N`` path: a seeded chaos soak."""
    from repro.resilience.chaos import soak

    if args.chaos_runs < 1:
        print("error: --chaos-runs must be >= 1")
        return 2
    report = soak(
        args.chaos_runs,
        base_seed=args.chaos_seed,
        degrade_policy=args.degrade_policy,
        world_size=args.ranks if args.ranks > 1 else 3,
        echo=print,
    )
    print(
        f"chaos soak: {len(report.outcomes)} run(s), "
        f"{report.n_completed} completed ({report.n_degraded} degraded), "
        f"{report.n_aborted} cleanly aborted -> invariant "
        f"{'HELD' if report.invariant_ok else 'VIOLATED'}"
    )
    return 0 if report.invariant_ok else 1


def _cmd_price(args: argparse.Namespace) -> int:
    from repro.experiments.workload import reference_trace
    from repro.kernels.adiabatic import price_trace
    from repro.machine.registry import device_by_name
    from repro.proglang.model import CompileError, ProgrammingModel

    device = device_by_name(args.device)
    model = ProgrammingModel(args.model)
    try:
        report = price_trace(
            reference_trace(args.n), device, model, args.variant
        )
    except CompileError as exc:
        print(f"does not compile: {exc}", file=sys.stderr)
        return 1
    for timer, seconds in sorted(
        report.seconds_by_timer.items(), key=lambda kv: -kv[1]
    ):
        print(f"{timer:12s} {seconds * 1e6:10.1f} us")
    print(f"{'total':12s} {report.total_seconds * 1e6:10.1f} us")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.experiments.workload import reference_trace
    from repro.kernels.tuning import autotune, tuning_table
    from repro.machine.registry import device_by_name

    result = autotune(reference_trace(args.n), device_by_name(args.device))
    print(tuning_table(result))
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.migrate.pipeline import MigrationPipeline, bundled_kernel_sources
    from repro.migrate.stats import bundled_migration_stats, format_stats

    pipeline = MigrationPipeline(optimize=not args.no_optimize)
    results = pipeline.run_directory(bundled_kernel_sources())
    for name, result in sorted(results.items()):
        diag = "; ".join(d.code for d in result.diagnostics) or "clean"
        print(f"{name:14s} -> {', '.join(result.kernel_names)}  [{diag}]")
    print()
    print(format_stats(bundled_migration_stats(optimize=not args.no_optimize)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import generate_report
    from repro.experiments.workload import reference_trace

    report = generate_report(reference_trace(args.n))
    if args.output:
        path = report.save(args.output)
        print(f"report written to {path}")
    else:
        print(report.markdown)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all

    run_all(verbose=True)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all
    from repro.experiments.workload import reference_trace

    path = export_all(reference_trace(args.n), args.output)
    print(f"artifacts written to {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    code, result = _run(args)
    if result is not None:
        print(result.report.summary())
    return code


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.experiments.workload import reference_trace
    from repro.machine.registry import device_by_name
    from repro.machine.roofline import format_roofline, roofline_for_trace

    device = device_by_name(args.device)
    points = roofline_for_trace(reference_trace(args.n), device, args.variant)
    print(f"Roofline on {device.system} (ridge at {points[0].ridge_point:.1f} F/B)")
    print(format_roofline(points))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """The run core with its event log on by default, then the device
    replay and the flame summary."""
    tracer, metrics = _observability_sinks(args)
    code, result = _run(args, tracer, metrics)
    if code == 2:
        return code
    if result is not None:
        trace = result.driver.trace
        print(
            f"{result.driver.step_index} steps, {len(trace.invocations)} kernel launches"
        )
        print(result.summary())
        if args.device:
            from repro.kernels.profiler import profile_trace
            from repro.machine.registry import device_by_name
            from repro.proglang.model import CompileError

            try:
                profile_trace(
                    trace,
                    device_by_name(args.device),
                    model=args.model,
                    variants=args.variant,
                    tracer=tracer,
                    metrics=metrics,
                )
                print(f"device timeline added for {args.device}")
            except CompileError as exc:
                print(f"device replay skipped (does not compile): {exc}")
    # a lost run is exactly when the log matters most: write it anyway
    _write_observability(args, tracer, metrics)
    if args.flame:
        print()
        print(tracer.flame_summary(limit=30))
    return code


def _cmd_dashboard(args: argparse.Namespace) -> int:
    """Render a recorded JSONL event log as a dashboard frame.

    With ``--follow`` the log may still be growing (``repro serve
    --events-out``, or a ``simulate`` in another terminal): the
    dashboard tails it live and stops at the writer's final ``metrics``
    snapshot or after ``--duration`` seconds.
    """
    from pathlib import Path

    from repro.observability.dashboard import follow_dashboard, load_events, render

    path = Path(args.events)
    if args.follow:
        if args.poll <= 0:
            print("error: --poll must be positive")
            return 2
        try:
            follow_dashboard(
                path,
                poll=args.poll,
                duration=args.duration,
                width=args.width,
            )
        except KeyboardInterrupt:
            print()
        return 0
    if not path.exists():
        print(f"error: no event log at {path}")
        return 2
    try:
        state = load_events(path)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(render(state, width=args.width))
    return 0


def _cmd_perfetto(args: argparse.Namespace) -> int:
    """Print the Chrome-trace JSON of a recorded event log, for
    ``chrome://tracing`` or https://ui.perfetto.dev."""
    import json

    from repro.observability.export import chrome_trace, read_events

    try:
        document = chrome_trace(read_events(args.events))
    except OSError as exc:
        print(f"error: cannot read {args.events}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {args.events} is not a valid event log: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(document))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Per-kernel, per-device profile table over the reference trace."""
    from repro.experiments.workload import reference_trace
    from repro.kernels.profiler import (
        KernelProfiler,
        format_profile_table,
        profile_trace,
    )
    from repro.machine.registry import all_devices, device_by_name
    from repro.proglang.model import CompileError

    trace = reference_trace(args.n)
    if args.device.lower() == "all":
        devices = list(all_devices())
    else:
        devices = [device_by_name(args.device)]
    profiler = KernelProfiler()
    priced_any = False
    for device in devices:
        try:
            profile_trace(
                trace,
                device,
                model=args.model,
                variants=args.variant,
                profiler=profiler,
            )
            priced_any = True
        except CompileError as exc:
            print(f"{device.system}: does not compile: {exc}", file=sys.stderr)
    print(format_profile_table(profiler.rows()))
    return 0 if priced_any else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service behind a unix socket."""
    import asyncio

    from repro.service import ServiceAPI, ServiceConfig, SimulationService, TenantQuota

    if args.workers < 1:
        print("error: --workers must be >= 1")
        return 2
    if args.cache_mb <= 0:
        print("error: --cache-mb must be positive")
        return 2
    config = ServiceConfig(
        workers=args.workers,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        quota=TenantQuota(max_active=args.quota),
        checkpoint_dir=args.checkpoint_dir,
        events_out=args.events_out,
    )

    async def _serve() -> None:
        service = SimulationService(config)
        api = ServiceAPI(service, args.socket)
        await api.start()
        print(f"serving on {args.socket} ({config.workers} worker(s))")
        if args.events_out:
            print(
                f"event log: {args.events_out} "
                f"-- follow with: python -m repro dashboard --follow {args.events_out}"
            )
        try:
            await api.serve_until_shutdown()
        finally:
            stats = service.cache.stats()
            print(
                f"served {len(service.scheduler.jobs)} job(s), "
                f"cache {stats.hits} hit(s) / {stats.misses} miss(es)"
            )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted")
    return 0


def _spec_from_args(args: argparse.Namespace) -> dict:
    spec: dict = {
        "n_per_side": args.n,
        "n_steps": args.steps,
        "seed": args.seed,
        "products": [p.strip() for p in args.products.split(",") if p.strip()],
    }
    if args.faults:
        spec["faults"] = args.faults
    if args.ranks != 1:
        spec["ranks"] = args.ranks
    if args.degrade_policy:
        spec["degrade_policy"] = args.degrade_policy
    return spec


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running ``repro serve`` and await the result."""
    import json as _json

    from repro.service import submit_job

    spec = _spec_from_args(args)
    try:
        lines = list(
            submit_job(
                args.socket,
                spec,
                tenant=args.tenant,
                priority=args.priority,
                deadline_in=args.deadline_in,
                stream=args.stream,
                timeout=args.timeout,
            )
        )
    except (ConnectionRefusedError, FileNotFoundError):
        print(f"error: no service listening on {args.socket}")
        return 2
    for line in lines:
        if "event" in line:
            event = line["event"]
            print(
                f"  step {event.get('step', '?')}: a={event.get('a', 0):.5f} "
                f"KE={event.get('kinetic_energy', 0):.6g}"
            )
    final = lines[-1]
    if not final.get("ok"):
        error = final.get("error", {})
        print(f"error [{error.get('type', '?')}]: {error.get('message', '')}")
        return 1
    if args.json:
        print(_json.dumps(final["result"], sort_keys=True, indent=2))
        return 0
    result = final["result"]
    origin = "cache" if result["from_cache"] else "run"
    print(
        f"job {final['job_id']} {final['state']} ({origin}): "
        f"{result['steps_completed']} step(s), "
        f"attempts={result['attempts']}, degraded={result['degraded']}, "
        f"preemptions={final.get('preemptions', 0)}"
    )
    for name, product in sorted(result["products"].items()):
        keys = ", ".join(sorted(product)) if isinstance(product, dict) else product
        print(f"  {name}: {keys}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """List a running service's jobs (and optionally its stats)."""
    from repro.service import request

    try:
        response = request(args.socket, {"op": "jobs"}, timeout=args.timeout)
    except (ConnectionRefusedError, FileNotFoundError):
        print(f"error: no service listening on {args.socket}")
        return 2
    jobs = response.get("jobs", [])
    if not jobs:
        print("no jobs")
    else:
        print(
            f"{'id':>4} {'state':>10} {'tenant':>10} {'prio':>4} "
            f"{'steps':>5} {'preempt':>7} spec"
        )
        for job in jobs:
            print(
                f"{job['job_id']:>4} {job['state']:>10} {job['tenant']:>10.10} "
                f"{job['priority']:>4} {job['steps_done']:>5} "
                f"{job['preemptions']:>7} {job['spec_hash'][:12]}"
                + (f" -> {job['coalesced_into']}" if job["coalesced_into"] else "")
                + (f" [{job['error']}]" if job["error"] else "")
            )
    if args.stats:
        stats = request(args.socket, {"op": "stats"}, timeout=args.timeout)["stats"]
        cache = stats["cache"]
        print(
            f"queue depth {stats['queue_depth']}, running {stats['running']}, "
            f"cache {cache['hits']} hit(s) / {cache['misses']} miss(es) "
            f"({cache['hit_rate']:.0%}), {cache['entries']} entr(ies), "
            f"{cache['bytes']} byte(s)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.resilience.degrade import DEGRADE_POLICIES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups are declared once, as argparse parent parsers.  A
    # child shares its parents' action objects, so the groups whose
    # defaults differ per subcommand are built afresh for each use.
    def size(n: int, steps: int | None = None) -> argparse.ArgumentParser:
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument(
            "-n", type=int, default=n, help="particles per side (2x n^3)"
        )
        if steps is not None:
            group.add_argument("--steps", type=int, default=steps)
        return group

    def sink(*short, default=None) -> argparse.ArgumentParser:
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument(
            *short,
            "--events-out",
            default=default,
            help="write the run's JSONL event log here (repro dashboard/perfetto input)",
        )
        return group

    recovery = argparse.ArgumentParser(add_help=False)
    recovery.add_argument(
        "--ranks",
        type=int,
        default=1,
        help="simulated MPI ranks of the fault-tolerant runner (a track per rank)",
    )
    recovery.add_argument(
        "--faults",
        help=(
            "fault plan, e.g. 'kill:rank=3,step=1;"
            "corrupt:kernel=upBarAc,step=2,mode=nan'"
        ),
    )
    recovery.add_argument("--fault-seed", type=int, default=0)
    recovery.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="checkpoint cadence in steps (with --checkpoint-dir)",
    )
    recovery.add_argument(
        "--checkpoint-dir", help="directory for simulation checkpoints"
    )
    recovery.add_argument(
        "--timeout", type=float, default=30.0, help="collective timeout (seconds)"
    )
    recovery.add_argument(
        "--max-retries", type=int, default=3, help="restart budget after failures"
    )

    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument(
        "--model", default="sycl", help="cuda | hip | sycl | sycl+visa"
    )
    variant.add_argument(
        "--variant",
        default="select",
        help="select | memory32 | memory_object | broadcast | visa",
    )

    socket = argparse.ArgumentParser(add_help=False)
    socket.add_argument("--socket", default="repro.sock", help="unix socket path")

    p = sub.add_parser(
        "simulate", help="run the mini-app", parents=[size(8, 5), recovery, sink()]
    )
    p.add_argument("--restart-from", help="resume from a simulation checkpoint file")
    p.add_argument(
        "--degrade-policy",
        default="restart",
        choices=DEGRADE_POLICIES,
        help=(
            "degradation ladder on rank failure: shrink-and-continue, "
            "restart the world (default, pre-degradation behaviour), "
            "or abort immediately"
        ),
    )
    p.add_argument(
        "--chaos-runs",
        type=int,
        default=0,
        help="run N seeded random fault plans (chaos soak) instead of one simulation",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=0, help="base seed for --chaos-runs"
    )
    p.add_argument(
        "--live",
        action="store_true",
        help=(
            "live terminal dashboard; redraws per "
            "step on a TTY, then prints the final frame"
        ),
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "price", help="price the reference workload", parents=[size(8), variant]
    )
    p.add_argument("device", help="Aurora | Polaris | Frontier")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("tune", help="auto-tune kernels on a device", parents=[size(8)])
    p.add_argument("device")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("migrate", help="run the CUDA->SYCL pipeline")
    p.add_argument("--no-optimize", action="store_true")
    p.set_defaults(func=_cmd_migrate)

    p = sub.add_parser("report", help="regenerate the full report", parents=[size(8)])
    p.add_argument("-o", "--output", help="write markdown to this path")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("figures", help="print every table and figure")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("export", help="write artefacts to JSON", parents=[size(8)])
    p.add_argument("-o", "--output", default="artifacts.json")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "validate", help="run and audit invariants", parents=[size(6, 2)]
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "roofline", help="roofline positions on a device", parents=[size(8)]
    )
    p.add_argument("device")
    p.add_argument("--variant", default="select")
    p.set_defaults(func=_cmd_roofline)

    p = sub.add_parser(
        "trace",
        help="run the mini-app and write its event log",
        parents=[size(6, 2), recovery, sink("-o", default="events.jsonl"), variant],
    )
    p.add_argument(
        "--device",
        help="replay kernels through this device's cost model on a device track",
    )
    p.add_argument(
        "--flame", action="store_true", help="print a flame summary of the spans"
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "dashboard", help="render a recorded telemetry event log (JSONL)"
    )
    p.add_argument("events", help="JSONL event log (simulate/trace --events-out)")
    p.add_argument("--width", type=int, default=80, help="frame width in columns")
    p.add_argument(
        "--follow",
        action="store_true",
        help="tail a growing event log live (e.g. repro serve --events-out)",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="follow-mode poll interval in seconds",
    )
    p.add_argument(
        "--duration",
        type=float,
        help="stop following after this many seconds (default: until the "
        "writer's final metrics snapshot)",
    )
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser(
        "perfetto", help="convert an event log to Chrome-trace JSON (stdout)"
    )
    p.add_argument("events", help="JSONL event log (simulate/trace --events-out)")
    p.set_defaults(func=_cmd_perfetto)

    p = sub.add_parser(
        "profile",
        help="per-kernel profile table with cost-model annotations",
        parents=[size(8), variant],
    )
    p.add_argument("device", help="Aurora | Polaris | Frontier | all")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "serve",
        help="run the simulation service behind a unix socket",
        parents=[socket],
    )
    p.add_argument("--workers", type=int, default=2, help="worker pool size")
    p.add_argument(
        "--cache-mb", type=float, default=256, help="result cache budget (MiB)"
    )
    p.add_argument("--quota", type=int, default=64, help="per-tenant active-job quota")
    p.add_argument("--checkpoint-dir", help="directory for preemption checkpoints")
    p.add_argument(
        "--events-out",
        help="append a live JSONL event log (repro dashboard --follow input)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit one job to a running repro serve",
        parents=[socket, size(6, 2)],
    )
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument(
        "--products",
        default="diagnostics",
        help="comma-separated: diagnostics,power_spectrum,halo_catalog,trace",
    )
    p.add_argument("--faults", help="fault plan (same syntax as simulate)")
    p.add_argument("--ranks", type=int, default=1)
    p.add_argument("--degrade-policy", help=" | ".join(DEGRADE_POLICIES))
    p.add_argument("--tenant", default="default")
    p.add_argument(
        "--priority", type=int, default=1, help="priority class (lower = sooner)"
    )
    p.add_argument(
        "--deadline-in",
        type=float,
        help="soft deadline in seconds from now (drives preemption)",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="print per-step in-situ snapshot events while the job runs",
    )
    p.add_argument("--json", action="store_true", help="print the full result as JSON")
    p.add_argument("--timeout", type=float, default=600.0)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("jobs", help="list a running service's jobs", parents=[socket])
    p.add_argument("--stats", action="store_true", help="also print queue/cache stats")
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=_cmd_jobs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
