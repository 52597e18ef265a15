"""Per-kernel auto-tuning across the three systems.

Section 5.2 ends with "exploring the tuning of these parameters for
individual kernels is left to future work" -- this example is that
exploration: an exhaustive legal-configuration search (variant x
sub-group size x register-file mode) per kernel per device, plus the
Section 7.2-style standalone deep dive for one kernel.

Run:  python examples/autotune.py
"""

from repro.experiments.standalone import explore_kernel, format_study
from repro.experiments.workload import reference_trace
from repro.hacc.checkpoint import KernelCheckpoint
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.kernels.tuning import autotune, tuning_table
from repro.machine.registry import all_devices


def main() -> None:
    trace = reference_trace()

    print("Exhaustive per-kernel tuning (variant x sub-group x GRF)")
    print("=" * 72)
    for device in all_devices():
        result = autotune(trace, device)
        print(tuning_table(result))
        print()

    # the standalone-checkpoint deep dive for the heaviest kernel
    print("Standalone exploration: Acceleration on Aurora (Section 7.2)")
    print("=" * 72)
    driver = AdiabaticDriver(SimulationConfig(n_per_side=8, n_steps=2))
    driver.run()
    checkpoint = KernelCheckpoint.capture(driver.particles)
    for device in all_devices():
        study = explore_kernel(checkpoint, "acceleration", device)
        print(format_study(study))
        print()


if __name__ == "__main__":
    main()
