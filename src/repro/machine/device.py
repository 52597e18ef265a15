"""Device descriptions for the virtual-GPU performance model.

A :class:`DeviceSpec` captures the microarchitectural facts the paper's
analysis turns on:

- which *sub-group sizes* the device supports (Section 4.3: AMD supports
  {32, 64}, Intel {16, 32}, NVIDIA {32});
- the size and configurability of the *register file* (Section 5.2: the
  Intel Data Center GPU Max 1550 offers 128 registers per thread by
  default, or 256 at the cost of halving the threads per EU);
- how *cross-lane communication* is implemented (Section 5.3: on Intel,
  an unknown shuffle pattern compiles to indirect register access costing
  one cycle per lane; NVIDIA and AMD have dedicated shuffle instructions);
- whether *floating-point atomic min/max* are native (Section 5.1: SYCL
  emulates them with compare-and-swap on NVIDIA GPUs);
- the *local-memory / L1 trade-off* (Section 5.4: on NVIDIA, shared
  memory and L1 share capacity, penalising local-memory variants of
  register-heavy kernels).

All latencies are expressed in cycles per SIMD instruction (i.e. per
sub-group-wide operation), and throughputs in operations per cycle per
lane.  Absolute values matter only through the ratios they induce.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Vendor(enum.Enum):
    """Device vendor/kind; determines programming-model availability."""

    INTEL = "intel"
    NVIDIA = "nvidia"
    AMD = "amd"
    #: host CPUs (Section 7.3: SYCL through an OpenCL CPU backend)
    CPU = "cpu"


class ShuffleImplementation(enum.Enum):
    """How a device realises an arbitrary cross-lane shuffle.

    ``DEDICATED``
        A hardware shuffle/permute instruction (NVIDIA ``__shfl``,
        AMD ``ds_permute``/DPP).  Cost is a small constant.
    ``INDIRECT_REGISTER``
        Indirect register access through an address register (Intel
        ``r[a0.0]``, Figure 5 of the paper).  Cost scales with the
        number of lanes gathered: one cycle per element.
    """

    DEDICATED = "dedicated"
    INDIRECT_REGISTER = "indirect_register"


class RegisterAllocation(enum.Enum):
    """How the device assigns registers to threads.

    ``FIXED_PARTITION``
        Each hardware thread owns a fixed register budget; kernels whose
        live state exceeds it spill (Intel Xe: 128 or 256 registers per
        thread, selected per kernel).
    ``OCCUPANCY_TRADED``
        The compiler may allocate more registers per work-item, reducing
        the number of resident threads (NVIDIA/AMD); spills occur only
        beyond the architectural per-thread maximum.
    """

    FIXED_PARTITION = "fixed_partition"
    OCCUPANCY_TRADED = "occupancy_traded"


class GRFMode(enum.Enum):
    """Register-file configuration (Intel terminology: GRF = general
    register file).  ``SMALL`` is the default 128-register mode;
    ``LARGE`` doubles the per-thread register count while halving the
    number of resident threads (Section 5.2)."""

    SMALL = "small"
    LARGE = "large"


@dataclass(frozen=True)
class DeviceSpec:
    """A virtual GPU (or the GPU slice owned by one MPI rank).

    Parameters are documented inline; see :mod:`repro.machine.registry`
    for the concrete values used for Aurora, Polaris and Frontier.
    """

    # -- identity -----------------------------------------------------
    name: str
    system: str
    vendor: Vendor
    #: marketing name of the physical GPU this slice belongs to
    gpu_product: str
    #: how many logical devices (ranks) one physical GPU presents
    slices_per_gpu: int

    # -- raw throughput ----------------------------------------------
    #: FP32 peak of this *slice* in TFLOP/s (Table 1 values divided by
    #: ``slices_per_gpu``)
    fp32_peak_tflops: float
    #: core clock in GHz
    clock_ghz: float
    #: number of compute units in this slice (EUs / SMs / CUs)
    compute_units: int
    #: native SIMD/vector width of one compute unit issue, in lanes
    simd_width: int
    #: HBM bandwidth of the slice in GB/s
    hbm_bandwidth_gbs: float

    # -- sub-groups ----------------------------------------------------
    #: sub-group sizes this device's compiler accepts
    subgroup_sizes: tuple[int, ...]
    #: the sub-group size used by default ("native" warp/wavefront size)
    default_subgroup_size: int

    # -- register file -------------------------------------------------
    #: architected registers per hardware thread in the default mode
    registers_per_thread: int
    #: hardware threads resident per compute unit in the default mode
    threads_per_cu: int
    #: whether the device supports the LARGE GRF mode (2x registers,
    #: half the threads) -- an Intel Max Series feature
    supports_large_grf: bool
    #: register width in 32-bit elements (Intel GRF registers are
    #: SIMD-wide; CUDA registers are per-lane scalars).  The cost and
    #: occupancy models work in *scalar registers per work-item*, and
    #: this factor converts.
    register_width_elems: int
    #: register-assignment policy (see :class:`RegisterAllocation`)
    register_allocation: RegisterAllocation
    #: architectural maximum scalar registers one work-item may be
    #: allocated (255 on NVIDIA, 256 VGPRs on AMD; on Intel this equals
    #: the fixed budget of the chosen GRF mode / sub-group size)
    max_regs_per_workitem: int

    # -- local memory ---------------------------------------------------
    #: work-group local memory (shared memory / SLM / LDS) per compute
    #: unit, in KiB
    local_mem_per_cu_kib: int
    #: True when local memory is carved out of the L1 cache (NVIDIA),
    #: creating the trade-off discussed in Section 5.4
    local_mem_shares_l1: bool
    #: latency, in cycles, of one local-memory access instruction
    local_mem_latency_cycles: float
    #: cycles for a sub-group barrier
    subgroup_barrier_cycles: float

    # -- cross-lane communication ---------------------------------------
    shuffle_impl: ShuffleImplementation
    #: cycles for one dedicated shuffle instruction (if available)
    dedicated_shuffle_cycles: float
    #: cycles per *lane* for an indirect-register-access gather
    indirect_access_cycles_per_lane: float
    #: cycles for a compile-time-known broadcast (register regioning on
    #: Intel; ``__shfl_sync`` with uniform index elsewhere)
    broadcast_cycles: float
    #: whether inline vISA assembly is accepted (Intel only)
    supports_inline_visa: bool

    # -- atomics ----------------------------------------------------------
    #: native FP32 atomic add in memory hierarchy
    native_float_atomic_add: bool
    #: native FP32 atomic min/max (Intel and AMD: yes; NVIDIA: emulated
    #: via CAS -- Section 5.1)
    native_float_atomic_minmax: bool
    #: cycles for one native atomic op (amortised, contention included)
    atomic_cycles: float
    #: multiplier applied when an atomic must be emulated with a CAS loop
    cas_emulation_factor: float

    # -- math instruction costs -------------------------------------------
    #: cycles per FMA issue (per sub-group instruction); normally 1
    fma_cycles: float
    #: cycles for a *precise* transcendental (pow, exp, rsqrt chain)
    precise_special_cycles: float
    #: cycles for a *native* / fast-math transcendental
    native_special_cycles: float

    # -- spill behaviour ----------------------------------------------------
    #: cycles charged per spilled scalar register per interaction loop
    #: (models the load/store traffic a spill generates)
    spill_cycles_per_register: float
    #: fraction of interaction state that must stay live; used by the
    #: register model when estimating pressure
    spill_pressure_exponent: float = 1.0

    # -- latency hiding -------------------------------------------------------
    #: weight of the occupancy-dependent stall penalty; effective cycles
    #: are multiplied by ``1 + stall_weight * (1 - occupancy)``
    stall_weight: float = 1.0

    # -- sub-group execution width ------------------------------------------
    #: smallest sub-group size that fully utilises the execution units.
    #: Sub-groups below it waste lanes (e.g. a 32-wide sub-group on the
    #: wave64-native MI250X runs at half throughput); sizes at or above
    #: it pipeline over multiple issue cycles at full utilisation.
    min_full_throughput_subgroup: int = 1

    # -- mapping from rank workload to device --------------------------------
    #: efficiency multiplier capturing node-mapping artefacts (the paper
    #: runs 2 ranks per A100 on Polaris, costing ~11%)
    node_mapping_efficiency: float = 1.0

    #: free-form notes (shown in Table 1 regeneration)
    notes: str = ""

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        """FP32 peak in FLOP/s."""
        return self.fp32_peak_tflops * 1e12

    def registers_per_workitem(self, subgroup_size: int, grf_mode: GRFMode) -> int:
        """Scalar 32-bit registers available to one work-item.

        On Intel hardware a hardware thread executes one sub-group, and
        its (SIMD-wide) registers are shared by the sub-group's
        work-items: halving the sub-group size doubles the registers per
        work-item (Section 5.2).  On NVIDIA/AMD, registers are
        architected per lane and the sub-group size does not change the
        per-work-item budget.
        """
        regs = self.registers_per_thread
        if grf_mode is GRFMode.LARGE:
            if not self.supports_large_grf:
                raise ValueError(
                    f"{self.name} does not support the large-GRF mode"
                )
            regs *= 2
        if self.register_width_elems > 1:
            # SIMD register file: budget is per thread, shared by lanes.
            total_scalars = regs * self.register_width_elems
            return total_scalars // subgroup_size
        return regs

    def threads_per_cu_for(self, grf_mode: GRFMode) -> int:
        """Resident hardware threads per CU under the given GRF mode."""
        if grf_mode is GRFMode.LARGE:
            if not self.supports_large_grf:
                raise ValueError(
                    f"{self.name} does not support the large-GRF mode"
                )
            return max(1, self.threads_per_cu // 2)
        return self.threads_per_cu

    def lane_utilisation(self, subgroup_size: int) -> float:
        """Fraction of execution lanes a sub-group of this size keeps
        busy (1.0 at or above the native execution width)."""
        if subgroup_size <= 0:
            raise ValueError("sub-group size must be positive")
        return min(1.0, subgroup_size / self.min_full_throughput_subgroup)

    def validate_subgroup_size(self, size: int) -> None:
        """Raise :class:`UnsupportedSubgroupSize` if ``size`` is illegal."""
        if size not in self.subgroup_sizes:
            raise UnsupportedSubgroupSize(
                f"sub-group size {size} is not supported by {self.name}; "
                f"supported sizes: {sorted(self.subgroup_sizes)}"
            )

    def shuffle_cycles(self, subgroup_size: int, *, compile_time_pattern: bool = False) -> float:
        """Cycles for one arbitrary cross-lane shuffle of one word.

        ``compile_time_pattern`` marks shuffles whose source lanes are
        known at compile time; on Intel these can be lowered to register
        regioning instead of indirect access (Section 5.3.2).
        """
        if self.shuffle_impl is ShuffleImplementation.DEDICATED:
            return self.dedicated_shuffle_cycles
        if compile_time_pattern:
            return self.broadcast_cycles
        return self.indirect_access_cycles_per_lane * subgroup_size

    def summary(self) -> dict:
        """A plain-dict summary used by the Table 1 regenerator."""
        return {
            "system": self.system,
            "vendor": self.vendor.value,
            "gpu": self.gpu_product,
            "slices_per_gpu": self.slices_per_gpu,
            "fp32_peak_tflops_slice": self.fp32_peak_tflops,
            "fp32_peak_tflops_gpu": self.fp32_peak_tflops * self.slices_per_gpu,
            "subgroup_sizes": list(self.subgroup_sizes),
            "default_subgroup_size": self.default_subgroup_size,
            "registers_per_thread": self.registers_per_thread,
            "supports_large_grf": self.supports_large_grf,
            "local_mem_per_cu_kib": self.local_mem_per_cu_kib,
            "local_mem_shares_l1": self.local_mem_shares_l1,
            "shuffle_impl": self.shuffle_impl.value,
            "native_float_atomic_minmax": self.native_float_atomic_minmax,
            "supports_inline_visa": self.supports_inline_visa,
        }


class UnsupportedSubgroupSize(ValueError):
    """Raised when a kernel requests a sub-group size the device lacks."""
