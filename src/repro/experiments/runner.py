"""Run every experiment and print the paper-shaped output.

``python -m repro.experiments.runner`` regenerates all tables and
figures in one pass (sharing the cached physics run) -- the quickest
way to see the whole reproduction.
"""

from __future__ import annotations

from repro.experiments import figure2, figure12, figure13, figures9_11, table1, table2
from repro.experiments.ablations import (
    best_register_config,
    compiler_lowering_study,
    register_sweep,
    specialization_gain,
)
from repro.experiments.workload import reference_trace


def run_all(verbose: bool = True) -> dict[str, object]:
    """Regenerate every artefact; returns them keyed by name."""
    trace = reference_trace()
    results: dict[str, object] = {}

    results["table1"] = table1.generate()
    results["figure2"] = figure2.generate(trace)
    results["figure2_checks"] = figure2.headline_checks(results["figure2"])
    results["figures9_11"] = figures9_11.generate(trace)
    results["figure12"] = figure12.generate(trace)
    results["figure13"] = figure13.generate(trace)
    results["table2"] = table2.generate()
    results["ablation_registers"] = best_register_config(register_sweep(trace))
    results["ablation_specialization"] = specialization_gain(trace)

    from repro.machine.cpu import pp_with_cpu
    from repro.machine.registry import AURORA
    from repro.machine.roofline import roofline_for_trace
    from repro.migrate.stats import bundled_migration_stats

    results["migration_stats"] = bundled_migration_stats()
    results["roofline_aurora"] = roofline_for_trace(trace, AURORA)
    results["cpu_outlook"] = pp_with_cpu(trace)
    results["compiler_lowering"] = compiler_lowering_study(trace)

    import tempfile
    from pathlib import Path

    from repro.core.codebase import analyze_model, generate_codebase
    from repro.core.maintenance import kernel_change_factors

    with tempfile.TemporaryDirectory(prefix="crkhacc-runner-") as scratch:
        root = Path(scratch) / "src"
        generate_codebase(root)
        results["maintenance_factors"] = kernel_change_factors(analyze_model(root))

    if verbose:
        print("=" * 72)
        print("Table 1: hardware configuration")
        print(table1.format_table(results["table1"]))
        print()
        print("Figure 2: initial vs optimized GPU kernel time")
        print(figure2.format_figure(results["figure2"]))
        for k, v in results["figure2_checks"].items():
            print(f"  {k}: {v:.2f}")
        print()
        for system, tab in results["figures9_11"].items():
            print(figures9_11.format_figure(tab))
            print()
        print("Figure 12: cascade plot")
        print(figure12.format_figure(results["figure12"]))
        print()
        print("Figure 13: navigation chart")
        print(figure13.format_figure(results["figure13"]))
        print()
        print("Table 2: SLOC breakdown")
        print(table2.format_table(results["table2"]))
        print()
        print("Ablation: best register configuration per kernel (Aurora)")
        for kernel, cfg in results["ablation_registers"].items():
            print(f"  {kernel}: sub-group={cfg[0]}, GRF={cfg[1]}")
        print("Ablation: specialization gain per system")
        for row in results["ablation_specialization"]:
            print(
                f"  {row.system}: best single={row.best_single_variant}, "
                f"gain={row.gain:.2f}x"
            )
        print()
        print("Migration statistics (Section 6.2 narrative)")
        from repro.migrate.stats import format_stats

        print(format_stats(results["migration_stats"]))
        print()
        print("Roofline on Aurora")
        from repro.machine.roofline import format_roofline

        print(format_roofline(results["roofline_aurora"]))
        print()
        outlook = results["cpu_outlook"]
        print(
            "CPU outlook (Section 7.3): PP over GPUs "
            f"{outlook['pp_gpus']:.2f} -> {outlook['pp_with_cpu']:.2f} "
            "with the untuned CPU added"
        )
        lowering = results["compiler_lowering"]
        print(
            "Compiler-lowering what-if (Section 5.3.1): "
            f"PP {lowering.pp_select:.2f} -> {lowering.pp_select_lowered:.2f} "
            f"(hand-specialised: {lowering.pp_hand_specialised:.2f})"
        )
        print("Maintenance factors (Section 7.1):")
        for cfg, factor in results["maintenance_factors"].items():
            print(f"  {cfg}: {factor:.3f} copies per kernel change")
    return results


if __name__ == "__main__":  # pragma: no cover
    run_all()
