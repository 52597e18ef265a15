"""What the regenerator tests hold the product to: the paper's Table 1,
a figure's best and worst variant per timer, and the share of the
hand-specialisation benefit the compiler-lowering what-if recovers."""

from __future__ import annotations

from repro.experiments.ablations import CompilerLoweringStudy
from repro.experiments.figures9_11 import EfficiencyTable

#: the paper's Table 1, for comparison with the registry's rows
PAPER_TABLE1 = [
    {
        "system": "Aurora",
        "cpu": "Intel Xeon CPU Max 9470C, 52 cores",
        "sockets": 2,
        "gpu": "Intel Data Center GPU Max 1550",
        "num_gpus": 6,
        "fp32_peak_per_gpu_tflops": 45.9,
    },
    {
        "system": "Polaris",
        "cpu": "AMD EPYC 7543P, 32 cores",
        "sockets": 1,
        "gpu": "NVIDIA A100-SXM4-40GB",
        "num_gpus": 4,
        "fp32_peak_per_gpu_tflops": 19.5,
    },
    {
        "system": "Frontier",
        "cpu": "AMD EPYC 7A53, 64 cores",
        "sockets": 1,
        "gpu": "AMD Instinct MI250X",
        "num_gpus": 4,
        "fp32_peak_per_gpu_tflops": 53.0,
    },
]


def best_variant(table: EfficiencyTable, timer: str) -> str:
    return max(table.efficiencies, key=lambda v: table.efficiencies[v][timer])


def worst_variant(table: EfficiencyTable, timer: str) -> str:
    return min(table.efficiencies, key=lambda v: table.efficiencies[v][timer])


def lowering_recovers(study: CompilerLoweringStudy) -> float:
    """Fraction of the hand-specialisation benefit the compiler
    lowering captures (1.0 = all of it)."""
    gain_full = study.pp_hand_specialised - study.pp_select
    if gain_full <= 0:
        return 1.0
    return (study.pp_select_lowered - study.pp_select) / gain_full
