"""Tests for the JSON artefact export."""

import json

import pytest

from repro.experiments.export import (
    SCHEMA_VERSION,
    export_all,
    figure2_payload,
    figure12_payload,
)


class TestPayloads:
    def test_figure2_payload_shape(self, reference_trace):
        payload = figure2_payload(reference_trace)
        assert len(payload["bars"]) == 8
        assert "aurora_optimization_factor" in payload["checks"]

    def test_figure12_payload_includes_paper_targets(self, reference_trace):
        payload = figure12_payload(reference_trace)
        assert payload["paper_pp"]["SYCL (Select + vISA)"] == 0.96
        assert set(payload["pp"]) >= set(payload["paper_pp"])


class TestExportRoundTrip:
    @pytest.fixture(scope="class")
    def exported(self, reference_trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("export") / "artifacts.json"
        export_all(reference_trace, path)
        return path

    def test_document_is_valid_json(self, exported):
        document = json.loads(exported.read_text())
        assert document["schema_version"] == SCHEMA_VERSION

    def test_all_artifacts_present(self, exported):
        document = json.loads(exported.read_text())
        assert set(document) == {
            "schema_version",
            "table1",
            "figure2",
            "figures9_11",
            "figure12",
            "figure13",
            "table2",
            "ablations",
        }

    def test_table2_total_in_export(self, exported):
        document = json.loads(exported.read_text())
        totals = [
            r for r in document["table2"] if r["implementations"] == "Total"
        ]
        assert totals[0]["sloc"] == 85_179

    def test_figures9_11_cover_three_systems(self, exported):
        document = json.loads(exported.read_text())
        assert set(document["figures9_11"]) == {"Aurora", "Polaris", "Frontier"}
