"""The end-to-end migration pipeline (Section 4.2).

"Function object transformation is the first stage in a short
migration pipeline that performs the complete source-to-source kernel
translation (e.g., header substitution, replacement of SYCLomatic
helper functions from the dpct namespace, and insertion of our own
wrappers for common operations like shuffles and atomics)."

:class:`MigrationPipeline` chains the stages: parse -> SYCLomatic
migration -> functorization -> (optionally) the Section 5.1
optimization rewrites, and reports all diagnostics.  The bundled
mini-CUDA sources of the five hot kernels serve as the pipeline's
standard input set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.migrate.functorize import FunctorResult, functorize
from repro.migrate.rules import Diagnostic, apply_rules, optimization_rules
from repro.migrate.syclomatic import SyclomaticResult, migrate_source

_KERNELS_DIR = Path(__file__).parent / "kernels_cuda"


@dataclass
class PipelineResult:
    """Everything the pipeline produced for one compilation unit."""

    original: str
    stage1: SyclomaticResult
    functors: FunctorResult
    #: functorized source after the optimization rewrites (equals
    #: ``functors.source`` when optimization is disabled)
    optimized_source: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def kernel_names(self) -> list[str]:
        return self.functors.kernel_names


class MigrationPipeline:
    """CUDA -> SYCL function objects, with optional optimizations."""

    def __init__(self, *, optimize: bool = False):
        self.optimize = optimize

    def run(self, source: str) -> PipelineResult:
        """Migrate one compilation unit."""
        stage1 = migrate_source(source)
        functors = functorize(stage1, source)
        optimized = functors.source
        diagnostics = list(stage1.diagnostics)
        if self.optimize:
            optimized, opt_diags = apply_rules(optimized, optimization_rules())
            diagnostics.extend(opt_diags)
        return PipelineResult(
            original=source,
            stage1=stage1,
            functors=functors,
            optimized_source=optimized,
            diagnostics=diagnostics,
        )

    def run_directory(self, sources: dict[str, str]) -> dict[str, PipelineResult]:
        """Migrate a set of compilation units, keyed by name."""
        return {name: self.run(text) for name, text in sources.items()}


def bundled_kernel_sources() -> dict[str, str]:
    """The five hot kernels in the mini-CUDA dialect (package data)."""
    sources = {}
    for path in sorted(_KERNELS_DIR.glob("*.cu")):
        sources[path.stem] = path.read_text()
    if not sources:
        raise FileNotFoundError(
            f"no bundled kernels found under {_KERNELS_DIR}"
        )
    return sources
