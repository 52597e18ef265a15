"""Smoke tests: the shipped examples run to completion.

Each example is executed in-process (importing its ``main``) with
stdout captured, so a broken public API surfaces here before a user
hits it.  Every example runs whole: the caller check in
``tests/test_callers.py`` counts ``examples/`` as a caller, so any API
an example keeps alive has to execute here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesPresent:
    def test_at_least_five_examples_ship(self):
        scripts = sorted(p.stem for p in EXAMPLES.glob("*.py"))
        assert "quickstart" in scripts
        assert len(scripts) >= 5

    def test_every_example_has_a_main(self):
        for path in EXAMPLES.glob("*.py"):
            module = load_example(path.stem)
            assert hasattr(module, "main"), path.name


class TestQuickExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "Performance portability" in out
        assert "PP = 0.000" in out  # the vISA zero

    def test_migrate_kernels(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["migrate_kernels.py"])
        load_example("migrate_kernels").main()
        out = capsys.readouterr().out
        assert "DPCT1026" in out
        assert "UpdateGeometryKernel" in out

    def test_standalone_kernels(self, capsys):
        load_example("standalone_kernels").main()
        out = capsys.readouterr().out
        assert "Standalone kernel replays" in out
        assert "Register-control sweep" in out

    @pytest.mark.timeout(120)
    def test_degraded_run(self, capsys):
        load_example("degraded_run").main()
        out = capsys.readouterr().out
        assert "finished on 6" in out
        assert "step 1: shrink" in out
        assert "step 2: shrink" in out
        assert "matches the fault-free reference exactly" in out

    @pytest.mark.timeout(120)
    def test_health_monitoring(self, capsys):
        load_example("health_monitoring").main()
        out = capsys.readouterr().out
        assert "Leak detected" in out
        assert "ewma-drift" in out
        assert "Rolled back to the step-3 checkpoint" in out
        assert "leak -> EWMA alert -> rollback -> clean finish" in out

    def test_autotune(self, capsys):
        load_example("autotune").main()
        assert "Auto-tuning on Aurora:" in capsys.readouterr().out

    @pytest.mark.timeout(120)
    def test_fault_tolerant_run(self, capsys):
        load_example("fault_tolerant_run").main()
        out = capsys.readouterr().out
        assert "Recovered run matches the fault-free reference exactly" in out

    def test_insitu_analysis(self, capsys):
        load_example("insitu_analysis").main()
        assert "growth factor of the measured power" in capsys.readouterr().out

    @pytest.mark.timeout(120)
    def test_multirank_simulation(self, capsys):
        load_example("multirank_simulation").main()
        out = capsys.readouterr().out
        assert "reproduces the FOF catalogue exactly" in out

    @pytest.mark.timeout(120)
    def test_performance_portability_study(self, capsys):
        load_example("performance_portability_study").main()
        out = capsys.readouterr().out
        assert "Summary (paper's headline claims):" in out

    def test_trace_and_profile(self, capsys):
        load_example("trace_and_profile").main()
        assert "Per-kernel profile (simulated Aurora):" in capsys.readouterr().out
