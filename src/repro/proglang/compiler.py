"""The virtual compiler: binds a kernel definition to a device.

Compilation in this reproduction checks what the real toolchains check
-- model availability, sub-group-size legality (Section 4.3), GRF-mode
support -- and resolves compile options the way the real compilers do,
including the fast-math default difference between DPC++ and
nvcc/hipcc that produced the Figure 2 surprise (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.machine.cost_model import InstructionProfile, KernelLaunch
from repro.machine.device import DeviceSpec, GRFMode
from repro.machine.executor import DeviceExecutor
from repro.proglang.kernel_ir import KernelDefinition
from repro.proglang.model import (
    CompileError,
    ProgrammingModel,
    default_fast_math,
    require_available,
)

#: CRK-HACC's block size (Appendix A: -DHACC_CUDA_BLOCK_SIZE=128)
DEFAULT_WORKGROUP_SIZE = 128


@dataclass(frozen=True)
class CompileOptions:
    """Per-compilation options, mirroring the paper's build flags.

    ``fast_math=None`` means "use the compiler's default", which is the
    model-dependent behaviour Section 4.4 documents.
    ``subgroup_size=None`` requests the device default
    (``-DHACC_SYCL_SG_SIZE`` in Appendix A picks it explicitly).
    """

    fast_math: bool | None = None
    subgroup_size: int | None = None
    grf_mode: GRFMode = GRFMode.SMALL
    workgroup_size: int = DEFAULT_WORKGROUP_SIZE


@dataclass(frozen=True)
class CompiledKernel:
    """A kernel bound to a device under a programming model."""

    definition: KernelDefinition
    device: DeviceSpec
    model: ProgrammingModel
    fast_math: bool
    subgroup_size: int
    grf_mode: GRFMode
    workgroup_size: int

    @property
    def name(self) -> str:
        return self.definition.name

    def launch_config(self, n_workitems: int) -> KernelLaunch:
        """Launch geometry for ``n_workitems`` work-items."""
        return KernelLaunch(
            n_workitems=n_workitems,
            workgroup_size=self.workgroup_size,
            subgroup_size=self.subgroup_size,
            grf_mode=self.grf_mode,
            fast_math=self.fast_math,
        )

    def profile(self) -> InstructionProfile:
        """The kernel's instruction profile on this device."""
        return self.definition.profile(
            self.device,
            subgroup_size=self.subgroup_size,
            fast_math=self.fast_math,
        )

    def submit(self, executor: DeviceExecutor, problem_size: int, body=None):
        """Submit one execution over ``problem_size`` elements."""
        if executor.device is not self.device:
            raise CompileError(
                f"kernel compiled for {self.device.name} submitted to "
                f"executor for {executor.device.name}"
            )
        n = self.definition.workitems_for(problem_size)
        launch = self.launch_config(n)
        run_body = body if body is not None else self.definition.body()
        return executor.submit(self.name, self.profile(), launch, run_body)


class Compiler:
    """Compiles kernel definitions for one device under one model."""

    def __init__(self, device: DeviceSpec, model: ProgrammingModel):
        require_available(model, device)
        self.device = device
        self.model = model

    def compile(
        self,
        definition: KernelDefinition,
        options: CompileOptions | None = None,
    ) -> CompiledKernel:
        """Bind ``definition`` to this compiler's device.

        Raises :class:`CompileError` when the kernel requires features
        the device lacks (illegal sub-group size, large-GRF on hardware
        without it, vISA outside Intel).
        """
        opts = options or CompileOptions()

        # Resolve the sub-group size: explicit option, then the kernel's
        # requirement, then the device default.
        sg = opts.subgroup_size
        if definition.required_subgroup_size is not None:
            if sg is not None and sg != definition.required_subgroup_size:
                raise CompileError(
                    f"kernel {definition.name!r} requires sub-group size "
                    f"{definition.required_subgroup_size}, but options "
                    f"request {sg}"
                )
            sg = definition.required_subgroup_size
        if sg is None:
            sg = self.device.default_subgroup_size
        try:
            self.device.validate_subgroup_size(sg)
        except ValueError as exc:
            raise CompileError(str(exc)) from exc

        if opts.grf_mode is GRFMode.LARGE and not self.device.supports_large_grf:
            raise CompileError(
                f"{self.device.name} has no large-GRF mode"
            )

        fast_math = opts.fast_math
        if fast_math is None:
            fast_math = default_fast_math(self.model)

        if opts.workgroup_size % sg != 0:
            raise CompileError(
                f"work-group size {opts.workgroup_size} is not a multiple "
                f"of sub-group size {sg}"
            )

        return CompiledKernel(
            definition=definition,
            device=self.device,
            model=self.model,
            fast_math=fast_math,
            subgroup_size=sg,
            grf_mode=opts.grf_mode,
            workgroup_size=opts.workgroup_size,
        )
