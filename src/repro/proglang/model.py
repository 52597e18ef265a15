"""Programming models and their device availability.

The availability matrix is the mechanism behind the zero
performance-portability scores in Figure 12: CUDA/HIP cannot target
Aurora, and inline vISA cannot target Polaris or Frontier, so any
configuration relying on them fails to run on some platform in H and
scores PP = 0 (Equation 1's "otherwise" branch).
"""

from __future__ import annotations

import enum

from repro.machine.device import DeviceSpec, Vendor


class ProgrammingModel(enum.Enum):
    """The programming models CRK-HACC has been written in."""

    CUDA = "cuda"
    HIP = "hip"
    SYCL = "sycl"
    #: SYCL with inline vISA assembly in the hot loops (Section 5.3.3)
    SYCL_VISA = "sycl+visa"
    #: SYCL through an OpenCL CPU backend (Section 7.3; correctness only)
    OPENCL_CPU = "opencl-cpu"


class CompileError(RuntimeError):
    """Raised when a model cannot be compiled for a device."""


#: which vendors each model's toolchain can target
_AVAILABILITY: dict[ProgrammingModel, frozenset[Vendor]] = {
    ProgrammingModel.CUDA: frozenset({Vendor.NVIDIA}),
    # HIP targets AMD natively and NVIDIA through the CUDA backend;
    # CRK-HACC's HIP support is a macro wrapper over the CUDA code
    # (Section 3.1), so it runs wherever CUDA or ROCm runs.
    ProgrammingModel.HIP: frozenset({Vendor.NVIDIA, Vendor.AMD}),
    # SYCL additionally runs on CPUs through the OpenCL backend
    # (Section 7.3) -- a correctness target, not part of the paper's
    # platform set H
    ProgrammingModel.SYCL: frozenset(
        {Vendor.INTEL, Vendor.NVIDIA, Vendor.AMD, Vendor.CPU}
    ),
    ProgrammingModel.SYCL_VISA: frozenset({Vendor.INTEL}),
    ProgrammingModel.OPENCL_CPU: frozenset({Vendor.CPU}),
}

#: compiler fast-math defaults (Section 4.4: "the oneAPI DPC++ compiler
#: defaults to fast math, whereas nvcc and hipcc do not")
_FAST_MATH_DEFAULT: dict[ProgrammingModel, bool] = {
    ProgrammingModel.CUDA: False,
    ProgrammingModel.HIP: False,
    ProgrammingModel.SYCL: True,
    ProgrammingModel.SYCL_VISA: True,
    ProgrammingModel.OPENCL_CPU: True,
}


def is_available(model: ProgrammingModel, device: DeviceSpec) -> bool:
    """Whether ``model``'s toolchain can target ``device``."""
    if model is ProgrammingModel.SYCL_VISA and not device.supports_inline_visa:
        return False
    return device.vendor in _AVAILABILITY[model]


def default_fast_math(model: ProgrammingModel) -> bool:
    """The compiler's fast-math default for ``model``."""
    return _FAST_MATH_DEFAULT[model]


def require_available(model: ProgrammingModel, device: DeviceSpec) -> None:
    """Raise :class:`CompileError` unless ``model`` targets ``device``."""
    if not is_available(model, device):
        raise CompileError(
            f"programming model {model.value!r} cannot target "
            f"{device.name} ({device.vendor.value})"
        )
