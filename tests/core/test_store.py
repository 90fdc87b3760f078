"""Saved-results tests.

A run manifest (:mod:`repro.observability.manifest`) is the one file
format for saved characterization results: its cell records carry
every derived metric of a result, so reporting and regression diffs
run from the file without re-simulating.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import SweepRunner
from repro.errors import ManifestError
from repro.observability import SCHEMA_VERSION, read_manifest
from repro.workloads import Workload, random_matrix


@pytest.fixture(scope="module")
def outcome():
    load = Workload("w", "random", random_matrix(64, 0.1, seed=0), 0.1)
    return SweepRunner(telemetry=True).run_grid(
        [load], ("dense", "csr", "coo"), partition_sizes=(16,)
    )


@pytest.fixture(scope="module")
def records(outcome, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "results.jsonl"
    return read_manifest(outcome.write_manifest(path)).cells


class TestRecords:
    def test_record_fields(self, records):
        for key in (
            "workload", "format", "partition_size", "sigma",
            "total_cycles", "balance_ratio", "bandwidth_utilization",
            "bram_18k", "energy_j",
        ):
            assert key in records[0]

    def test_record_is_json_serializable(self, records):
        json.dumps(records[1])

    def test_dense_record_values(self, records):
        assert records[0]["format"] == "dense"
        assert records[0]["sigma"] == 1.0


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, outcome):
        path = outcome.write_manifest(
            tmp_path / "results.jsonl", extra={"note": "unit"}
        )
        records = read_manifest(path).cells
        assert len(records) == len(outcome.results)
        by_format = {r["format"]: r for r in records}
        assert by_format["dense"]["sigma"] == 1.0
        for result in outcome.results:
            record = by_format[result.format_name]
            assert record["total_cycles"] == result.total_cycles
            assert record["energy_j"] == result.energy_j
            assert record["lut"] == result.resources.lut

    def test_metadata_written(self, tmp_path, outcome):
        path = outcome.write_manifest(
            tmp_path / "results.jsonl", extra={"seed": 7}
        )
        header = read_manifest(path).header
        assert header["extra"]["seed"] == 7
        assert header["schema"] == SCHEMA_VERSION

    def test_version_checked(self, tmp_path, outcome):
        path = outcome.write_manifest(tmp_path / "results.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = 99
        path.write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        )
        with pytest.raises(ManifestError, match="schema"):
            read_manifest(path)

    def test_missing_records_rejected(self, tmp_path, outcome):
        path = outcome.write_manifest(tmp_path / "results.jsonl")
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n")  # header only
        with pytest.raises(ManifestError):
            read_manifest(path)


class TestFiltering:
    def test_records_by(self, tmp_path, outcome):
        manifest = read_manifest(
            outcome.write_manifest(tmp_path / "results.jsonl")
        )
        coords = manifest.cell_coords()
        assert [c for c in coords if c[1] == "csr"] == [("w", "csr", 16)]
        assert len([c for c in coords if c[0] == "w"]) == 3
        assert len([c for c in coords if c[2] == 16]) == 3
        assert not [c for c in coords if c[2] == 4]
