"""Migration code statistics.

Section 6.2 attributes ~6,000 of the SYCL version's extra lines to the
generated function-object definitions, "which place one kernel
argument on each line and artificially inflate the line count".  This
module measures exactly that on the reproduction's own migrations:
SLOC of the CUDA input vs the functorized SYCL output (headers +
source), so the Table 2 narrative is verifiable on live code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.migrate.pipeline import MigrationPipeline, PipelineResult, bundled_kernel_sources


def sloc(text: str) -> int:
    """Source lines of code: non-blank, non-comment-only lines.

    Matches the Table 2 convention ("excluding whitespace and
    comments") for the C-like sources the pipeline handles.
    """
    count = 0
    in_block = False
    for line in text.splitlines():
        stripped = line.strip()
        if in_block:
            if "*/" in stripped:
                in_block = False
                stripped = stripped.split("*/", 1)[1].strip()
            else:
                continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block = True
                continue
            stripped = stripped.split("*/", 1)[1].strip()
        if stripped.startswith("//") or not stripped:
            continue
        count += 1
    return count


@dataclass(frozen=True)
class MigrationStats:
    """SLOC accounting of one kernel's migration."""

    kernel: str
    cuda_sloc: int
    sycl_source_sloc: int
    header_sloc: int

    @property
    def sycl_total_sloc(self) -> int:
        return self.sycl_source_sloc + self.header_sloc

    @property
    def inflation(self) -> float:
        """SYCL lines per CUDA line (the paper's ~1.7x effect)."""
        if self.cuda_sloc == 0:
            return float("inf")
        return self.sycl_total_sloc / self.cuda_sloc


def migration_stats(result: PipelineResult, kernel_file: str) -> MigrationStats:
    """Stats for one migrated compilation unit."""
    header_lines = sum(sloc(h) for h in result.functors.headers.values())
    return MigrationStats(
        kernel=kernel_file,
        cuda_sloc=sloc(result.original),
        sycl_source_sloc=sloc(result.functors.source),
        header_sloc=header_lines,
    )


def bundled_migration_stats(*, optimize: bool = False) -> list[MigrationStats]:
    """Stats for all five bundled hot kernels."""
    pipeline = MigrationPipeline(optimize=optimize)
    results = pipeline.run_directory(bundled_kernel_sources())
    return [migration_stats(r, name) for name, r in sorted(results.items())]


def format_stats(stats: list[MigrationStats]) -> str:
    lines = [
        f"{'kernel':<14} {'CUDA':>6} {'SYCL src':>9} {'headers':>8} "
        f"{'total':>6} {'inflation':>9}"
    ]
    total_cuda = total_sycl = total_header = 0
    for s in stats:
        total_cuda += s.cuda_sloc
        total_sycl += s.sycl_source_sloc
        total_header += s.header_sloc
        lines.append(
            f"{s.kernel:<14} {s.cuda_sloc:>6} {s.sycl_source_sloc:>9} "
            f"{s.header_sloc:>8} {s.sycl_total_sloc:>6} {s.inflation:>8.2f}x"
        )
    overall = (total_sycl + total_header) / max(total_cuda, 1)
    lines.append(
        f"{'(all)':<14} {total_cuda:>6} {total_sycl:>9} {total_header:>8} "
        f"{total_sycl + total_header:>6} {overall:>8.2f}x"
    )
    return "\n".join(lines)
