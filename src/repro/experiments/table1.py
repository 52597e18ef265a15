"""Table 1: hardware configuration of the three test systems."""

from __future__ import annotations

from repro.machine.registry import table1_rows


def generate() -> list[dict]:
    """Regenerate Table 1 from the device registry."""
    return table1_rows()


def format_table(rows: list[dict] | None = None) -> str:
    """Human-readable rendering (what the bench harness prints)."""
    rows = rows if rows is not None else generate()
    header = f"{'System':<9} {'CPU':<36} {'Sockets':>7} {'GPU':<32} {'#GPUs':>5} {'FP32/GPU':>9}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['system']:<9} {r['cpu']:<36} {r['sockets']:>7} "
            f"{r['gpu']:<32} {r['num_gpus']:>5} "
            f"{r['fp32_peak_per_gpu_tflops']:>8.1f}T"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_table())
