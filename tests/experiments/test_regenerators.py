"""Tests for the per-table/figure regenerators."""

import pytest

from repro.experiments import (
    ablations,
    figure2,
    figure12,
    figure13,
    figures9_11,
    table1,
    table2,
)
from tests.experiments.oracles import PAPER_TABLE1, best_variant


class TestTable1:
    def test_rows_match_paper_values(self):
        rows = {r["system"]: r for r in table1.generate()}
        for paper_row in PAPER_TABLE1:
            system = paper_row["system"]
            assert rows[system]["gpu"] == paper_row["gpu"]
            assert rows[system]["num_gpus"] == paper_row["num_gpus"]
            assert rows[system]["fp32_peak_per_gpu_tflops"] == pytest.approx(
                paper_row["fp32_peak_per_gpu_tflops"]
            )

    def test_format_contains_all_systems(self):
        text = table1.format_table()
        for system in ("Aurora", "Polaris", "Frontier"):
            assert system in text


class TestFigure2:
    def test_bar_set(self, reference_trace):
        bars = figure2.generate(reference_trace)
        labels = {(b.system, b.label) for b in bars}
        assert ("Polaris", "CUDA") in labels
        assert ("Frontier", "HIP (fast math)") in labels
        assert ("Aurora", "SYCL (optimized)") in labels
        assert len(bars) == 8

    def test_all_bars_positive(self, reference_trace):
        assert all(b.seconds > 0 for b in figure2.generate(reference_trace))

    def test_format_renders(self, reference_trace):
        text = figure2.format_figure(figure2.generate(reference_trace))
        assert "GPU kernel time" in text


class TestFigures9to11:
    def test_tables_for_all_systems(self, reference_trace):
        tables = figures9_11.generate(reference_trace)
        assert set(tables) == {"Aurora", "Polaris", "Frontier"}

    def test_visa_only_on_aurora(self, reference_trace):
        tables = figures9_11.generate(reference_trace)
        assert "visa" in tables["Aurora"].efficiencies
        assert "visa" not in tables["Polaris"].efficiencies
        assert "visa" not in tables["Frontier"].efficiencies

    def test_best_variant_has_efficiency_one(self, reference_trace):
        tables = figures9_11.generate(reference_trace)
        for table in tables.values():
            for timer in table.timers:
                best = best_variant(table, timer)
                assert table.efficiencies[best][timer] == pytest.approx(1.0)

    def test_format_renders(self, reference_trace):
        table = figures9_11.generate(reference_trace)["Aurora"]
        text = figures9_11.format_figure(table)
        assert "upGeo" in text and "select" in text


class TestFigure12:
    def test_paper_pp_reference_table(self):
        assert figure12.PAPER_PP["SYCL (Select + vISA)"] == 0.96

    def test_format_includes_paper_column(self, reference_trace):
        text = figure12.format_figure(figure12.generate(reference_trace))
        assert "0.96" in text
        assert "Unified" in text


class TestFigure13:
    def test_points_generated(self, reference_trace, tmp_path):
        points = figure13.generate(reference_trace, codebase_root=tmp_path / "src")
        names = {p.name for p in points}
        assert "Unified" in names
        assert "SYCL (Select + vISA)" in names

    def test_format_renders(self, reference_trace, tmp_path):
        points = figure13.generate(reference_trace, codebase_root=tmp_path / "src")
        text = figure13.format_figure(points)
        assert "convergence" in text


class TestTable2:
    def test_rows_and_format(self, tmp_path):
        rows = table2.generate(tmp_path / "src")
        by = {r["implementations"]: r["sloc"] for r in rows}
        assert by["Total"] == 85_179
        text = table2.format_table(rows)
        assert "85,179" in text


class TestScratchDirectories:
    def test_entry_points_leave_no_temporary_directory(
        self, reference_trace, tmp_path, monkeypatch
    ):
        import tempfile

        from repro.experiments import runner

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        figure13.generate(reference_trace)
        table2.generate()
        runner.run_all(verbose=False)
        assert list(tmp_path.iterdir()) == []


class TestAblations:
    def test_register_sweep_covers_four_configs(self, reference_trace):
        points = ablations.register_sweep(reference_trace)
        kernels = {p.kernel for p in points}
        configs = {(p.subgroup_size, p.grf_mode) for p in points}
        assert len(configs) == 4
        assert "upBarAc" in kernels

    def test_best_register_config_is_kernel_specific(self, reference_trace):
        best = ablations.best_register_config(
            ablations.register_sweep(reference_trace)
        )
        # Section 5.2: "the best combination ... varied across kernels"
        assert len(set(best.values())) >= 2

    def test_exchange_crossover_object_wins_large_payloads(self):
        points = ablations.exchange_crossover(max_words=16)
        for system in ("Aurora", "Polaris", "Frontier"):
            sys_points = [p for p in points if p.system == system]
            large = [p for p in sys_points if p.payload_words >= 8]
            assert all(p.cycles_object < p.cycles_32bit for p in large), system

    def test_exchange_crossover_tie_at_one_word(self):
        points = ablations.exchange_crossover(max_words=2)
        ties = [p for p in points if p.payload_words == 1]
        for p in ties:
            assert p.cycles_object == pytest.approx(p.cycles_32bit)

    def test_specialization_gain_at_least_one(self, reference_trace):
        rows = ablations.specialization_gain(reference_trace)
        assert {r.system for r in rows} == {"Aurora", "Polaris", "Frontier"}
        for r in rows:
            assert r.gain >= 1.0 - 1e-12

    def test_aurora_gains_most_from_specialization(self, reference_trace):
        rows = {r.system: r for r in ablations.specialization_gain(reference_trace)}
        assert rows["Aurora"].gain >= rows["Polaris"].gain
        assert rows["Aurora"].gain >= rows["Frontier"].gain
