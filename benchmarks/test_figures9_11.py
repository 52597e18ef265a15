"""Benchmark: regenerate Figures 9-11 (variant efficiencies)."""

import pytest

from repro.experiments import figures9_11
from repro.kernels.specs import HOTSPOT_TIMERS
from repro.machine.registry import AURORA, FRONTIER, POLARIS, device_by_name


@pytest.mark.parametrize("system", ["Aurora", "Polaris", "Frontier"])
def test_variant_efficiencies(benchmark, trace, system):
    device = device_by_name(system)
    table = benchmark.pedantic(
        figures9_11.generate_for, args=(device, trace), rounds=1, iterations=1
    )
    print("\n" + figures9_11.format_figure(table))
    effs = table.efficiencies
    best = {t: max(effs, key=lambda v: effs[v][t]) for t in HOTSPOT_TIMERS}
    worst = {t: min(effs, key=lambda v: effs[v][t]) for t in HOTSPOT_TIMERS}

    if system == "Aurora":
        # Select always worst; no single best variant (Figure 9)
        for timer in HOTSPOT_TIMERS:
            assert worst[timer] == "select"
        assert len(set(best.values())) >= 2
    else:
        # Select always best on Polaris and Frontier (Figures 10, 11)
        for timer in HOTSPOT_TIMERS:
            assert best[timer] == "select"

    if system == "Polaris":
        worst_broadcast = min(
            table.efficiencies["broadcast"][t] for t in HOTSPOT_TIMERS
        )
        assert worst_broadcast < 0.15  # the ~10x slowdowns
    if system == "Frontier":
        mean_broadcast = sum(
            table.efficiencies["broadcast"][t] for t in HOTSPOT_TIMERS
        ) / len(HOTSPOT_TIMERS)
        assert 0.45 < mean_broadcast < 0.75  # "~0.6"
