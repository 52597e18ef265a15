"""What a run imports: numpy, and only the layers it uses.

Each check runs in a fresh interpreter, since this one has imported
everything the suite touches.  scipy is a test oracle and never loads
in a run, and importing the driver loads none of the analysis layers.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE = str(Path(repro.__file__).resolve().parents[1])


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
    layers = ("repro.core", "repro.kernels", "repro.proglang", "repro.experiments", "repro.migrate")
    assert loaded_after("import repro.hacc.timestep", layers) == set()
