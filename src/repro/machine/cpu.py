"""CPU execution of the SYCL code (Section 7.3).

"The SYCL code has been tested for correctness on CPUs using an OpenCL
backend ... We expect that some additional tuning for CPUs would be
required to achieve high levels of performance portability --
primarily due to the way the code uses atomics."

This module models that situation: a CPU device (the Xeon Max 9470C
host of an Aurora node) on which the SYCL kernels *run correctly*
through the OpenCL backend but with poor efficiency, dominated by
atomic contention -- cache-line ping-pong makes every atomic an order
of magnitude costlier than on a GPU.  The CPU is deliberately *not*
part of the paper's platform set H; helpers here quantify what PP
would become if it were (the "future work" the paper announces).
"""

from __future__ import annotations

from repro.machine.device import (
    DeviceSpec,
    RegisterAllocation,
    ShuffleImplementation,
    Vendor,
)

# ---------------------------------------------------------------------------
# The CPU host of an Aurora node: 2x Intel Xeon CPU Max 9470C.
#
# 52 cores x 2 sockets, 2 AVX-512 FMA pipes per core (32 FP32 lanes
# each): ~13 TFLOP/s FP32 at 2.0 GHz.  The OpenCL CPU backend emulates
# sub-groups with vector lanes (sizes 4/8/16 supported, plus 32 and 64
# by loop-unrolling); "shuffles" are permutes/cache traffic rather
# than register moves, and atomics serialize through the coherence
# protocol.
# ---------------------------------------------------------------------------
CPU_HOST = DeviceSpec(
    name="aurora-xeon-max-host",
    system="CPU",
    vendor=Vendor.CPU,
    gpu_product="2x Intel Xeon CPU Max 9470C",
    slices_per_gpu=1,
    fp32_peak_tflops=13.3,
    clock_ghz=2.0,
    compute_units=104,  # physical cores
    simd_width=32,  # dual AVX-512 FMA pipes, FP32 lanes
    hbm_bandwidth_gbs=3276.8,  # HBM2e SKU
    subgroup_sizes=(4, 8, 16, 32, 64),
    default_subgroup_size=16,
    registers_per_thread=32,  # AVX-512 architectural registers
    threads_per_cu=2,  # SMT-2
    supports_large_grf=False,
    register_width_elems=16,  # ZMM registers hold 16 FP32 lanes
    register_allocation=RegisterAllocation.OCCUPANCY_TRADED,
    max_regs_per_workitem=256,  # the compiler spills to stack beyond L1-hot state
    local_mem_per_cu_kib=48,  # L1D per core backing "local memory"
    local_mem_shares_l1=False,
    local_mem_latency_cycles=1.0,  # local memory *is* cache
    subgroup_barrier_cycles=2.0,
    shuffle_impl=ShuffleImplementation.DEDICATED,
    dedicated_shuffle_cycles=3.0,  # vector permutes
    broadcast_cycles=1.0,
    indirect_access_cycles_per_lane=0.0,
    supports_inline_visa=False,
    native_float_atomic_add=True,
    native_float_atomic_minmax=True,
    # Section 7.3's warning, as a number: coherence-protocol atomics
    # cost ~an order of magnitude more than a GPU's memory atomics
    atomic_cycles=120.0,
    cas_emulation_factor=1.5,
    fma_cycles=1.0,
    precise_special_cycles=20.0,
    native_special_cycles=10.0,
    spill_cycles_per_register=2.0,  # spills land in L1
    stall_weight=0.3,  # out-of-order cores self-hide latency
    min_full_throughput_subgroup=16,  # one AVX-512 FP32 vector
    node_mapping_efficiency=1.0,
    notes="Section 7.3: correctness target, not a performance target",
)


def pp_with_cpu(trace, variants="memory_object") -> dict[str, float]:
    """PP over {Aurora, Polaris, Frontier} vs over the set + CPU.

    The paper plans to "explore this further in future work"; this
    helper shows why: adding an untuned CPU platform to H collapses
    the harmonic mean.
    """
    from repro.core.metrics import performance_portability
    from repro.kernels.adiabatic import price_trace
    from repro.machine.registry import all_devices
    from repro.proglang.model import ProgrammingModel

    devices = list(all_devices()) + [CPU_HOST]
    # utilisation proxy: work per second per peak FLOP/s, normalised to
    # the best-utilising device.  This keeps the comparison meaningful
    # across devices with very different raw speeds without requiring a
    # per-CPU variant search.
    work = trace.total_interactions()
    utilisation = {}
    for device in devices:
        report = price_trace(trace, device, ProgrammingModel.SYCL, variants)
        utilisation[device.system] = work / report.total_seconds / device.peak_flops
    top = max(utilisation.values())
    efficiencies = {s: u / top for s, u in utilisation.items()}
    gpu_only = {s: e for s, e in efficiencies.items() if s != "CPU"}
    return {
        "pp_gpus": performance_portability(gpu_only),
        "pp_with_cpu": performance_portability(efficiencies),
        "cpu_efficiency": efficiencies["CPU"],
    }
