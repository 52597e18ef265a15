"""Machine-readable export of every experiment artefact.

Downstream analysis (plotting notebooks, regression dashboards) wants
the figures as data, not text.  ``export_all`` serialises every table
and figure to one JSON document with a stable schema; individual
``<artefact>_payload`` functions expose the same dictionaries
programmatically.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import figure2, figure12, figure13, figures9_11, table1, table2
from repro.experiments.ablations import exchange_crossover, specialization_gain
from repro.hacc.timestep import WorkloadTrace

SCHEMA_VERSION = 1


def table1_payload() -> list[dict]:
    return table1.generate()


def figure2_payload(trace: WorkloadTrace) -> dict:
    bars = figure2.generate(trace)
    return {
        "bars": [
            {"system": b.system, "label": b.label, "seconds": b.seconds}
            for b in bars
        ],
        "checks": figure2.headline_checks(bars),
    }


def figures9_11_payload(trace: WorkloadTrace) -> dict:
    tables = figures9_11.generate(trace)
    return {
        system: {
            "timers": list(table.timers),
            "efficiencies": table.efficiencies,
        }
        for system, table in tables.items()
    }


def figure12_payload(trace: WorkloadTrace) -> dict:
    data = figure12.generate(trace)
    return {
        "platforms": data.platforms,
        "pp": data.pp,
        "efficiencies": data.efficiencies,
        "paper_pp": figure12.PAPER_PP,
    }


def figure13_payload(trace: WorkloadTrace) -> list[dict]:
    return [
        {
            "configuration": p.name,
            "performance_portability": p.performance_portability,
            "code_convergence": p.code_convergence,
        }
        for p in figure13.generate(trace)
    ]


def table2_payload() -> list[dict]:
    return table2.generate()


def ablations_payload(trace: WorkloadTrace) -> dict:
    return {
        "specialization_gain": [
            {
                "system": r.system,
                "best_single_variant": r.best_single_variant,
                "gain": r.gain,
            }
            for r in specialization_gain(trace)
        ],
        "exchange_crossover": [
            {
                "system": p.system,
                "payload_words": p.payload_words,
                "cycles_32bit": p.cycles_32bit,
                "cycles_object": p.cycles_object,
            }
            for p in exchange_crossover()
        ],
    }


def export_all(trace: WorkloadTrace, path: str | Path) -> Path:
    """Write every artefact to ``path`` as one JSON document."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "table1": table1_payload(),
        "figure2": figure2_payload(trace),
        "figures9_11": figures9_11_payload(trace),
        "figure12": figure12_payload(trace),
        "figure13": figure13_payload(trace),
        "table2": table2_payload(),
        "ablations": ablations_payload(trace),
    }
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path
