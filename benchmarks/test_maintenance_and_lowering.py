"""Benchmarks: the Section 7.1 maintenance model and the Section 5.3.1
compiler-lowering what-if."""

import pytest

from repro.core.codebase import analyze_model
from repro.core.maintenance import kernel_change_factors
from repro.experiments.ablations import compiler_lowering_study


def test_maintenance_factors(benchmark, codebase_root):
    def run():
        return kernel_change_factors(analyze_model(codebase_root))

    factors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for cfg, factor in factors.items():
        print(f"{cfg:26s} {factor:.3f} copies per kernel change")
    # Section 7.1: the Unified mix roughly doubles kernel maintenance;
    # the specialised SYCL configurations stay within a few percent of 1
    assert 1.8 < factors["Unified"] < 2.5
    assert factors["SYCL (Select + vISA)"] < 1.05


def test_compiler_lowering(benchmark, trace):
    study = benchmark.pedantic(
        compiler_lowering_study, args=(trace,), rounds=1, iterations=1
    )
    # the share of the hand specialisation's benefit the lowering captures
    gain = study.pp_hand_specialised - study.pp_select
    recovered = (study.pp_select_lowered - study.pp_select) / gain if gain > 0 else 1.0
    print(
        f"\nout-of-box Select PP:      {study.pp_select:.3f}\n"
        f"with compiler lowering:     {study.pp_select_lowered:.3f}\n"
        f"hand-specialised PP:        {study.pp_hand_specialised:.3f}\n"
        f"benefit recovered:          {recovered:.0%}"
    )
    # the Section 5.3.1 proposal would recover essentially all of the
    # hand specialization's benefit with zero code divergence
    assert recovered > 0.9
