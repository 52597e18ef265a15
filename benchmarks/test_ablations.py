"""Benchmarks: the beyond-paper ablations of DESIGN.md Section 7."""

from repro.experiments import ablations


def test_register_sweep(benchmark, trace):
    """Section 5.2's register controls on Aurora."""
    points = benchmark.pedantic(
        ablations.register_sweep, args=(trace,), rounds=1, iterations=1
    )
    best = ablations.best_register_config(points)
    print()
    for kernel, (sg, grf) in sorted(best.items()):
        print(f"{kernel}: sub-group={sg}, GRF={grf}")
    # the paper's observation: the best combination is kernel-specific
    assert len(set(best.values())) >= 2


def test_exchange_crossover(benchmark):
    """Memory, 32-bit vs Memory, Object vs payload size."""
    points = benchmark(ablations.exchange_crossover)
    for p in points:
        if p.payload_words in (1, 4, 12):
            print(
                f"{p.system}: {p.payload_words} words -> "
                f"32-bit {p.cycles_32bit:.0f}cy, object {p.cycles_object:.0f}cy"
            )
    # the object exchange always wins for multi-word payloads
    assert all(p.cycles_object < p.cycles_32bit for p in points if p.payload_words >= 4)


def test_specialization_gain(benchmark, trace):
    """Section 6: per-kernel variant selection vs best single variant."""
    rows = benchmark.pedantic(
        ablations.specialization_gain, args=(trace,), rounds=1, iterations=1
    )
    print()
    for r in rows:
        print(
            f"{r.system}: best single = {r.best_single_variant}, "
            f"specialization gain = {r.gain:.2f}x"
        )
    by = {r.system: r for r in rows}
    # Aurora benefits from mixing; Polaris/Frontier are select-dominated
    assert by["Aurora"].gain > 1.0
    assert by["Polaris"].best_single_variant == "select"
    assert by["Frontier"].best_single_variant == "select"
