"""Quickstart: simulate, price, and compute performance portability.

This walks the reproduction's three layers in ~40 lines of user code:

1. run the CRK-HACC mini-app (the paper's test problem, scaled down),
2. replay its GPU workload on the three virtual devices under two
   kernel variants,
3. compute the performance-portability metric across the platforms.

Run:  python examples/quickstart.py
"""

from repro.core.metrics import application_efficiency, performance_portability
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.kernels.adiabatic import price_trace
from repro.machine.registry import all_devices
from repro.proglang.model import CompileError, ProgrammingModel


def main() -> None:
    # 1. the physics: 2x 8^3 particles, five steps from z=200 to z=50
    config = SimulationConfig(n_per_side=8)
    print(f"Simulating 2x {config.n_per_side}^3 particles in a "
          f"{config.box:.2f} Mpc/h box ...")
    driver = AdiabaticDriver(config)
    for diag in driver.run():
        print(
            f"  a = {diag.a:.5f}  KE = {diag.kinetic_energy:.3e}  "
            f"thermal = {diag.thermal_energy:.3e}"
        )

    # 2. price the recorded GPU workload per device and variant
    print("\nSimulated GPU kernel time (total, ms):")
    variants = ("select", "memory_object", "broadcast", "visa")
    totals: dict[str, dict[str, float]] = {}
    for device in all_devices():
        totals[device.system] = {}
        for variant in variants:
            try:
                report = price_trace(
                    driver.trace, device, ProgrammingModel.SYCL, variant
                )
            except CompileError:
                print(f"  {device.system:9s} {variant:14s} (does not compile)")
                continue
            totals[device.system][variant] = report.total_seconds
            print(
                f"  {device.system:9s} {variant:14s} "
                f"{report.total_seconds * 1e3:8.3f} ms"
            )

    # 3. performance portability of the single-source variants
    print("\nPerformance portability (Equation 1):")
    for variant in variants:
        efficiencies = {}
        for system, by_variant in totals.items():
            if variant not in by_variant:
                efficiencies[system] = 0.0  # unsupported -> PP = 0
                continue
            best = min(by_variant.values())
            efficiencies[system] = application_efficiency(
                by_variant[variant], best
            )
        pp = performance_portability(efficiencies)
        print(f"  {variant:14s} PP = {pp:.3f}")


if __name__ == "__main__":
    main()
