"""What a run imports: numpy, and only the layers it uses.

The package holds two products: the runtime (the mini-app and what
runs it) and the analysis that measures it.  Analysis may import
runtime; runtime never imports analysis.  The import checks run in a
fresh interpreter, since this one has imported everything the suite
touches: scipy is a test oracle and never loads in a run, and importing
the driver, the service or the resilience layer loads none of the
analysis side.  One ``ast`` scan holds the direction in the source.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SOURCE = str(Path(repro.__file__).resolve().parents[1])
PACKAGE = Path(repro.__file__).resolve().parent

RUNTIME = ("hacc", "xp", "resilience", "service", "observability")
ANALYSIS = ("core", "machine", "kernels", "proglang", "migrate", "experiments")
ANALYSIS_MODULES = tuple(f"repro.{p}" for p in ANALYSIS)


def loaded_after(script: str, packages: tuple[str, ...]) -> set[str]:
    """The modules of ``packages`` in ``sys.modules`` after ``script``
    runs in a new interpreter."""
    report = "import sys\nprint(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", f"{script}\n{report}"],
        env={**os.environ, "PYTHONPATH": SOURCE},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules = done.stdout.splitlines()[-1].split()
    assert "repro" in modules
    return {m for m in modules for p in packages if m == p or m.startswith(p + ".")}


def test_a_step_never_imports_scipy():
    script = (
        "import repro.hacc.timestep, repro.resilience, repro.service\n"
        "from repro.hacc.timestep import AdiabaticDriver, SimulationConfig\n"
        "AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=1)).run()"
    )
    assert loaded_after(script, ("scipy",)) == set()


def test_the_driver_loads_no_analysis_layer():
    packages = ANALYSIS_MODULES + ("repro.observability",)
    assert loaded_after("import repro.hacc.timestep", packages) == {
        "repro.observability",
        "repro.observability.health",
        "repro.observability.metrics",
        "repro.observability.tracing",
    }


@pytest.mark.parametrize("package", ["repro.service", "repro.resilience"])
def test_the_service_and_resilience_load_no_analysis_layer(package):
    assert loaded_after(f"import {package}", ANALYSIS_MODULES) == set()


def imports(path: Path) -> list[tuple[int, set[str]]]:
    """Each ``import`` or ``from ... import`` in ``path``, at any depth:
    its line and the modules it may name, relative imports resolved."""
    module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.append((node.lineno, {alias.name for alias in node.names}))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = module.split(".")[: -node.level]
                base = ".".join(parent + ([base] if base else []))
            names = {f"{base}.{alias.name}" for alias in node.names}
            found.append((node.lineno, {base} | names))
    return found


def test_the_runtime_never_imports_the_analysis_side():
    crossings = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for package in RUNTIME
        for path in sorted((PACKAGE / package).rglob("*.py"))
        for line, names in imports(path)
        if any(".".join(name.split(".")[:2]) in ANALYSIS_MODULES for name in names)
    ]
    assert crossings == []
