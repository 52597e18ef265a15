"""Figures 9, 10, 11: application efficiency of the SYCL variants.

One figure per system; each shows, for the seven hydro timers (upGeo,
upCor, upBarEx, upBarAc, upBarAcF, upBarDu, upBarDuF), the efficiency
of every compilable variant normalised to the best variant for that
timer on that system.

The paper's qualitative findings, which the regenerated data must (and
the test suite checks does) reproduce:

- **Aurora** (Fig. 9): Select is always worst; no single variant is
  best everywhere; broadcast wins the atomic-heavy kernels; picking
  the best variant gains 2-5x per kernel.
- **Polaris** (Fig. 10): Select is always best; Broadcast is ~10x
  slower on some kernels (register spills); the memory variants do
  their worst on the register-heavy Energy/Acceleration kernels.
- **Frontier** (Fig. 11): Select is always best; local memory is
  (almost) always second; Broadcast sits around 0.6 efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.workload import reference_trace
from repro.hacc.timestep import WorkloadTrace
from repro.kernels.adiabatic import price_trace
from repro.kernels.specs import HOTSPOT_TIMERS
from repro.kernels.variants import ALL_VARIANTS
from repro.machine.device import DeviceSpec
from repro.machine.registry import all_devices
from repro.proglang.model import CompileError, ProgrammingModel


@dataclass(frozen=True)
class EfficiencyTable:
    """One system's figure: variant x timer efficiencies."""

    system: str
    timers: tuple[str, ...]
    #: variant name -> timer -> efficiency in (0, 1]
    efficiencies: dict[str, dict[str, float]]


def generate_for(device: DeviceSpec, trace: WorkloadTrace | None = None) -> EfficiencyTable:
    """The variant-efficiency table for one system."""
    trace = trace if trace is not None else reference_trace()
    seconds: dict[str, dict[str, float]] = {}
    for variant in ALL_VARIANTS:
        try:
            report = price_trace(trace, device, ProgrammingModel.SYCL, variant)
        except CompileError:
            continue  # vISA off-Intel: not part of the figure
        seconds[variant.name] = {
            t: report.seconds_by_timer[t] for t in HOTSPOT_TIMERS
        }
    best = {t: min(s[t] for s in seconds.values()) for t in HOTSPOT_TIMERS}
    efficiencies = {
        name: {t: best[t] / s[t] for t in HOTSPOT_TIMERS}
        for name, s in seconds.items()
    }
    return EfficiencyTable(
        system=device.system, timers=HOTSPOT_TIMERS, efficiencies=efficiencies
    )


def generate(trace: WorkloadTrace | None = None) -> dict[str, EfficiencyTable]:
    """All three figures, keyed by system name."""
    trace = trace if trace is not None else reference_trace()
    return {d.system: generate_for(d, trace) for d in all_devices()}


def format_figure(table: EfficiencyTable) -> str:
    lines = [
        f"Application efficiency of SYCL variants on {table.system}",
        f"{'variant':<15} " + " ".join(f"{t:>9}" for t in table.timers),
    ]
    for name, effs in table.efficiencies.items():
        lines.append(
            f"{name:<15} " + " ".join(f"{effs[t]:>9.2f}" for t in table.timers)
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    for system, table in generate().items():
        print(format_figure(table))
        print()
