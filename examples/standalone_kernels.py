"""Standalone kernel experiments from checkpoints (Section 7.2).

"To facilitate rapid prototyping and analysis, we extracted CRK-HACC's
biggest hotspots into standalone applications driven by checkpoint
files."  This example reproduces that workflow:

1. run a short simulation and capture the run's own checkpoint,
2. replay each hot kernel standalone from the checkpoint file,
3. sweep the Section 5.2 register controls (GRF mode x sub-group size)
   for one kernel on Aurora -- the per-kernel tuning exploration the
   checkpoint workflow was built for.

Run:  python examples/standalone_kernels.py
"""

import tempfile
from pathlib import Path

from repro.experiments.ablations import register_sweep
from repro.experiments.standalone import (
    STANDALONE_KERNELS,
    checkpoint_metadata,
    run_standalone,
)
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.resilience import SimulationCheckpoint


def main() -> None:
    # 1. simulate and capture
    print("Running 2 steps to build a realistic gas state ...")
    driver = AdiabaticDriver(SimulationConfig(n_per_side=8, n_steps=2))
    driver.run()
    checkpoint = SimulationCheckpoint.capture(driver)
    with tempfile.TemporaryDirectory(prefix="crkhacc-ckpt-") as tmp:
        path = checkpoint.save(Path(tmp) / "sim-step0002.npz")
        print(f"Checkpoint {path.name} written and loaded back")
        reloaded = SimulationCheckpoint.load(path)
    print(checkpoint_metadata(reloaded))

    # 2. standalone replays: the driver's own two hydro stages on the
    # file's gas rows, so each output is bit for bit what the run's
    # next step would hand its kernel_hook for that kernel
    print("\nStandalone kernel replays (each equals the in-run kernel):")
    for kernel in STANDALONE_KERNELS:
        outputs = run_standalone(reloaded, kernel)
        fields = ", ".join(
            f"{name}{list(arr.shape)}" for name, arr in outputs.items()
        )
        print(f"  {kernel:13s} -> {fields}")

    # 3. the register-control sweep the standalone workflow enables
    print("\nRegister-control sweep on Aurora (Section 5.2), Memory variant:")
    points = register_sweep(driver.trace)
    by_kernel: dict[str, list] = {}
    for p in points:
        by_kernel.setdefault(p.kernel, []).append(p)
    for kernel, pts in sorted(by_kernel.items()):
        best = min(pts, key=lambda p: p.seconds)
        line = "  ".join(
            f"sg{p.subgroup_size}/{p.grf_mode}={p.seconds * 1e6:7.1f}us"
            for p in sorted(pts, key=lambda p: (p.subgroup_size, p.grf_mode))
        )
        print(
            f"  {kernel:10s} {line}  "
            f"-> best: sg{best.subgroup_size}/{best.grf_mode} "
            f"({best.registers_per_workitem} regs/work-item)"
        )


if __name__ == "__main__":
    main()
