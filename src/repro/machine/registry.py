"""Concrete device definitions for the three test systems.

The raw throughput data comes from Table 1 of the paper; the
microarchitectural parameters come from public vendor documentation.
A small number of *calibration constants* (latencies, spill costs,
stall weights) are tuned so the model reproduces the paper's relative
results; they are grouped and commented below so that their provenance
is auditable.

Each registry entry describes the slice of a GPU that one MPI rank
drives in the paper's 8-rank test problem:

- Aurora: one of the two compute stacks of an Intel Data Center GPU
  Max 1550 (Section 3.4.2),
- Polaris: half of an NVIDIA A100-SXM4-40GB (two ranks share a GPU,
  costing ~11% efficiency),
- Frontier: one Graphics Compute Die (GCD) of an AMD Instinct MI250X.
"""

from __future__ import annotations

from repro.machine.device import (
    DeviceSpec,
    RegisterAllocation,
    ShuffleImplementation,
    Vendor,
)

# ---------------------------------------------------------------------------
# Aurora: Intel Data Center GPU Max 1550, one stack.
#
# One stack has 64 Xe-cores; each Xe-core has 8 vector engines with
# 512-bit (16-lane FP32) SIMD and 8 hardware threads of 128 GRF
# registers (512-bit each).  The large-GRF mode doubles registers and
# halves resident threads (Section 5.2).  Arbitrary shuffles lower to
# indirect register access at 1 cycle/lane (Section 5.3, Figure 5);
# compile-time-known broadcasts lower to register regioning at ~1 cycle
# (Figure 6).  Inline vISA is available (Section 5.3.3).
# ---------------------------------------------------------------------------
AURORA = DeviceSpec(
    name="aurora-pvc-stack",
    system="Aurora",
    vendor=Vendor.INTEL,
    gpu_product="Intel Data Center GPU Max 1550",
    slices_per_gpu=2,
    fp32_peak_tflops=45.9 / 2,
    clock_ghz=1.6,
    compute_units=512,  # vector engines per stack (64 Xe-cores x 8)
    simd_width=16,
    hbm_bandwidth_gbs=3276.8 / 2,
    subgroup_sizes=(16, 32),
    default_subgroup_size=32,
    registers_per_thread=128,
    threads_per_cu=8,
    supports_large_grf=True,
    register_width_elems=16,
    register_allocation=RegisterAllocation.FIXED_PARTITION,
    max_regs_per_workitem=256,  # large GRF at sub-group 16: 256*16/16
    local_mem_per_cu_kib=16,  # 128 KiB SLM per Xe-core / 8 VEs
    local_mem_shares_l1=False,
    local_mem_latency_cycles=2.5,
    subgroup_barrier_cycles=8.0,
    shuffle_impl=ShuffleImplementation.INDIRECT_REGISTER,
    dedicated_shuffle_cycles=0.0,  # not available
    indirect_access_cycles_per_lane=1.0,  # Section 5.3: 1 cycle/element
    broadcast_cycles=1.0,  # register regioning, Figure 6
    supports_inline_visa=True,
    native_float_atomic_add=True,
    native_float_atomic_minmax=True,
    atomic_cycles=12.0,
    cas_emulation_factor=1.0,
    fma_cycles=1.0,
    precise_special_cycles=24.0,
    native_special_cycles=6.0,
    spill_cycles_per_register=1.5,
    stall_weight=1.2,
    min_full_throughput_subgroup=16,  # SIMD16 vector engines
    node_mapping_efficiency=1.0,
    notes="2 stacks per GPU; 8 ranks use 2 stacks on each of 4 GPUs",
)

# ---------------------------------------------------------------------------
# Polaris: NVIDIA A100-SXM4-40GB, half a GPU (2 MPI ranks per GPU).
#
# A full A100 has 108 SMs with 64 FP32 lanes each at ~1.41 GHz
# (19.5 TFLOP/s FP32).  Registers: 64K 32-bit per SM, max 255 per
# thread; allocating more registers per thread reduces occupancy.
# Shared memory is carved out of the 192 KiB unified L1 (Section 5.4's
# shared-memory/L1 trade-off).  Float atomic min/max are emulated with
# CAS (Section 5.1).  The ~11% node-mapping penalty reflects running
# 2 ranks per GPU (Section 3.4.2).
# ---------------------------------------------------------------------------
POLARIS = DeviceSpec(
    name="polaris-a100-half",
    system="Polaris",
    vendor=Vendor.NVIDIA,
    gpu_product="NVIDIA A100-SXM4-40GB",
    slices_per_gpu=2,
    fp32_peak_tflops=19.5 / 2,
    clock_ghz=1.41,
    compute_units=54,  # SMs in the half-GPU slice
    simd_width=64,  # FP32 lanes per SM
    hbm_bandwidth_gbs=1555.0 / 2,
    subgroup_sizes=(32,),
    default_subgroup_size=32,
    registers_per_thread=32,  # 65536 regs / 2048 threads at full occupancy
    threads_per_cu=64,  # warps per SM
    supports_large_grf=False,
    register_width_elems=1,
    register_allocation=RegisterAllocation.OCCUPANCY_TRADED,
    max_regs_per_workitem=255,
    local_mem_per_cu_kib=164,  # max shared-memory carve-out per SM
    local_mem_shares_l1=True,
    local_mem_latency_cycles=1.5,
    subgroup_barrier_cycles=4.0,
    shuffle_impl=ShuffleImplementation.DEDICATED,
    dedicated_shuffle_cycles=2.0,
    indirect_access_cycles_per_lane=0.0,  # not applicable
    broadcast_cycles=2.0,
    supports_inline_visa=False,
    native_float_atomic_add=True,
    native_float_atomic_minmax=False,  # CAS-emulated, Section 5.1
    atomic_cycles=10.0,
    cas_emulation_factor=3.0,
    fma_cycles=1.0,
    precise_special_cycles=28.0,
    native_special_cycles=6.0,
    spill_cycles_per_register=8.0,
    spill_pressure_exponent=1.6,
    stall_weight=1.0,
    min_full_throughput_subgroup=32,  # warp-native
    node_mapping_efficiency=0.89,  # ~11% loss from 2 ranks/GPU
    notes="4 GPUs per node; 2 MPI ranks share each A100",
)

# ---------------------------------------------------------------------------
# Frontier: AMD Instinct MI250X, one GCD.
#
# One GCD has 110 CUs, each with 4 SIMD16 units (64 FP32 lanes) at
# ~1.7 GHz (26.5 TFLOP/s FP32 per GCD).  512 VGPRs per SIMD shared by
# up to 8 wave64 wavefronts; max 256 VGPRs per wavefront.  LDS is a
# dedicated 64 KiB per CU (no L1 trade-off).  Cross-lane data movement
# has dedicated instructions (DPP / ds_permute), giving the MI250X the
# "dual affinity" the paper remarks on: SIMD like Intel, dedicated
# cross-lane ops like NVIDIA.
# ---------------------------------------------------------------------------
FRONTIER = DeviceSpec(
    name="frontier-mi250x-gcd",
    system="Frontier",
    vendor=Vendor.AMD,
    gpu_product="AMD Instinct MI250X",
    slices_per_gpu=2,
    fp32_peak_tflops=53.0 / 2,
    clock_ghz=1.7,
    compute_units=110,
    simd_width=64,
    hbm_bandwidth_gbs=3276.8 / 2,
    subgroup_sizes=(32, 64),
    default_subgroup_size=64,
    registers_per_thread=64,  # 512 VGPRs/SIMD / 8 wavefronts
    threads_per_cu=32,  # 8 wavefronts x 4 SIMDs
    supports_large_grf=False,
    register_width_elems=1,
    register_allocation=RegisterAllocation.OCCUPANCY_TRADED,
    max_regs_per_workitem=256,
    local_mem_per_cu_kib=64,
    local_mem_shares_l1=False,
    local_mem_latency_cycles=1.5,
    subgroup_barrier_cycles=3.0,
    shuffle_impl=ShuffleImplementation.DEDICATED,
    dedicated_shuffle_cycles=2.0,
    indirect_access_cycles_per_lane=0.0,
    broadcast_cycles=2.0,
    supports_inline_visa=False,
    native_float_atomic_add=True,
    native_float_atomic_minmax=True,
    atomic_cycles=14.0,
    cas_emulation_factor=1.0,
    fma_cycles=1.0,
    precise_special_cycles=24.0,
    native_special_cycles=8.0,
    spill_cycles_per_register=3.0,
    stall_weight=1.0,
    min_full_throughput_subgroup=64,  # wave64-native CDNA2
    node_mapping_efficiency=1.0,
    notes="4 GPUs per node; each GCD is a separate logical device",
)

_DEVICES = {d.name: d for d in (AURORA, POLARIS, FRONTIER)}
_SYSTEMS = {d.system.lower(): d for d in (AURORA, POLARIS, FRONTIER)}


def all_devices() -> tuple[DeviceSpec, ...]:
    """All registered devices, in the paper's presentation order."""
    return (AURORA, POLARIS, FRONTIER)


def device_by_name(name: str) -> DeviceSpec:
    """Look a device up by registry name or by system name.

    >>> device_by_name("Aurora").vendor.value
    'intel'
    """
    key = name.lower()
    if key in _SYSTEMS:
        return _SYSTEMS[key]
    if name in _DEVICES:
        return _DEVICES[name]
    raise KeyError(
        f"unknown device {name!r}; known: "
        f"{sorted(_DEVICES) + sorted(s.title() for s in _SYSTEMS)}"
    )


def table1_rows() -> list[dict]:
    """Rows mirroring Table 1 of the paper (per-node hardware summary)."""
    host = {
        "Aurora": ("Intel Xeon CPU Max 9470C, 52 cores", 2, 6),
        "Polaris": ("AMD EPYC 7543P, 32 cores", 1, 4),
        "Frontier": ("AMD EPYC 7A53, 64 cores", 1, 4),
    }
    rows = []
    for dev in all_devices():
        cpu, sockets, n_gpus = host[dev.system]
        rows.append(
            {
                "system": dev.system,
                "cpu": cpu,
                "sockets": sockets,
                "gpu": dev.gpu_product,
                "num_gpus": n_gpus,
                "fp32_peak_per_gpu_tflops": round(
                    dev.fp32_peak_tflops * dev.slices_per_gpu, 1
                ),
            }
        )
    return rows
