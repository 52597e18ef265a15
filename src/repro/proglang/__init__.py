"""Programming-model layer: CUDA / HIP / SYCL / inline vISA.

This subpackage models the *software* side of the paper's portability
study: which programming models can target which devices, what the
compilers' default behaviours are (the fast-math default difference
behind Figure 2), and the sub-group intrinsics the kernel variants are
written in.
"""

from repro.proglang.model import (
    CompileError,
    ProgrammingModel,
    default_fast_math,
    is_available,
)
from repro.proglang.compiler import CompiledKernel, CompileOptions, Compiler
from repro.proglang.kernel_ir import KernelDefinition

__all__ = [
    "CompileError",
    "ProgrammingModel",
    "default_fast_math",
    "is_available",
    "CompiledKernel",
    "CompileOptions",
    "Compiler",
    "KernelDefinition",
]
