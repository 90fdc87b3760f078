"""Run manifests: golden schema, round-trips, failure modes.

The golden tests pin the manifest's wire format — record types, the
exact field set of each record type, and the deterministic content
(recipe digests, cache-key sets, cycle metrics).  A failure here means
downstream consumers of the JSONL schema (``repro stats``, CI
artifacts, external dashboards) would break: bump
``repro.observability.manifest.SCHEMA_VERSION`` and update the golden
sets deliberately.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import SweepRunner, WorkloadSpec
from repro.errors import ManifestError
from repro.observability import (
    MANIFEST_KIND,
    SCHEMA_VERSION,
    read_manifest,
    write_sweep_manifest,
)

SPECS = (
    WorkloadSpec.random(96, 0.05, seed=1),
    WorkloadSpec.band(96, 4, seed=1),
)
FORMATS = ("csr", "coo")
PARTITIONS = (8, 16)

#: The pinned wire format: field set of each record type.
GOLDEN_HEADER_FIELDS = {
    "type", "kind", "schema", "created_unix", "n_cells", "workers",
    "n_chunks", "workloads", "formats", "partition_sizes", "extra",
}
GOLDEN_CELL_FIELDS = {
    "type", "index", "workload", "format", "partition_size",
    "cache_key", "wall_s", "total_cycles", "memory_cycles",
    "compute_cycles", "decompress_cycles", "sigma", "balance_ratio",
    "total_bytes", "framed_total_bytes", "framing_overhead_bytes",
    "bandwidth_utilization", "total_seconds", "throughput_bytes_per_s",
    "dynamic_power_w", "static_power_w", "energy_j", "clock_mhz",
    "n_partitions", "bram_18k", "ff", "lut",
}
GOLDEN_SUMMARY_FIELDS = {"type", "cells", "wall_s", "cache", "metrics"}
GOLDEN_FAILED_CELL_FIELDS = {
    "type", "index", "workload", "format", "partition_size",
    "recipe_digest", "error_type", "message", "traceback", "attempts",
}


@pytest.fixture(scope="module")
def outcome():
    return SweepRunner(telemetry=True).run_grid(
        SPECS, FORMATS, partition_sizes=PARTITIONS
    )


@pytest.fixture()
def manifest_path(outcome, tmp_path):
    return write_sweep_manifest(outcome, tmp_path / "run.jsonl")


class TestGoldenSchema:
    def test_record_stream_shape(self, manifest_path):
        lines = manifest_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        # header first, summary last, exactly one cell per grid cell.
        assert records[0]["type"] == "header"
        assert records[-1]["type"] == "summary"
        cells = records[1:-1]
        assert [r["type"] for r in cells] == ["cell"] * 8
        assert [r["index"] for r in cells] == list(range(8))

    def test_header_fields_and_values(self, manifest_path):
        header = json.loads(manifest_path.read_text().splitlines()[0])
        assert set(header) == GOLDEN_HEADER_FIELDS
        assert header["kind"] == MANIFEST_KIND
        assert header["schema"] == SCHEMA_VERSION == 3
        assert header["n_cells"] == 8
        assert header["formats"] == ["csr", "coo"]
        assert header["partition_sizes"] == [8, 16]
        assert [w["name"] for w in header["workloads"]] == [
            "band-4", "rand-0.05",
        ]
        # recipe digests are pure functions of the generator params.
        recipes = {w["name"]: w["recipe"] for w in header["workloads"]}
        assert recipes["rand-0.05"] == SPECS[0].recipe_digest
        assert recipes["band-4"] == SPECS[1].recipe_digest

    def test_cell_fields_and_model_values(self, manifest_path, outcome):
        records = [
            json.loads(line)
            for line in manifest_path.read_text().splitlines()
        ]
        for record, result in zip(records[1:-1], outcome.results):
            assert set(record) == GOLDEN_CELL_FIELDS
            assert record["workload"] == result.workload
            assert record["format"] == result.format_name
            assert record["partition_size"] == result.partition_size
            assert record["total_cycles"] == result.total_cycles
            assert record["sigma"] == pytest.approx(result.sigma)
            assert (
                record["framing_overhead_bytes"]
                == result.framing_overhead_bytes
                > 0
            )
            assert record["framed_total_bytes"] == (
                result.total_bytes + result.framing_overhead_bytes
            )
            assert record["wall_s"] >= 0.0
            assert record["energy_j"] == result.energy_j
            assert record["clock_mhz"] == result.clock_mhz
            assert record["n_partitions"] == result.pipeline.n_partitions
            assert record["bram_18k"] == result.resources.bram_18k
            assert len(record["cache_key"]) == 32  # blake2b-128 hex

    def test_summary_fields(self, manifest_path, outcome):
        summary = json.loads(
            manifest_path.read_text().splitlines()[-1]
        )
        assert set(summary) == GOLDEN_SUMMARY_FIELDS
        assert summary["cells"] == 8
        assert summary["cache"]["hits"] == outcome.stats.hits
        assert summary["cache"]["misses"] == outcome.stats.misses
        assert summary["metrics"]["counters"]["sweep.cells"] == 8

    def test_recipe_digest_is_stable(self):
        # pinned value: a drift means old manifests no longer align
        # with new runs of the same recipe.
        assert (
            WorkloadSpec.random(96, 0.05, seed=1).recipe_digest
            == WorkloadSpec.random(96, 0.05, seed=1).recipe_digest
        )
        assert (
            WorkloadSpec.random(96, 0.05, seed=1).recipe_digest
            != WorkloadSpec.random(96, 0.05, seed=2).recipe_digest
        )


class TestRoundTrip:
    def test_read_back(self, manifest_path, outcome):
        manifest = read_manifest(manifest_path)
        assert manifest.n_cells == 8
        assert manifest.workers == 1
        assert manifest.wall_s == pytest.approx(
            outcome.telemetry.wall_s
        )
        assert manifest.cell_coords() == {
            (r.workload, r.format_name, r.partition_size)
            for r in outcome.results
        }
        assert manifest.cache_keys() == outcome.telemetry.cache_keys()
        assert manifest.recipes() == outcome.telemetry.recipes
        assert manifest.counters() == outcome.telemetry.metrics.counters
        assert manifest.cache_counters()["hits"] == outcome.stats.hits

    def test_unknown_record_types_are_skipped(self, manifest_path):
        with manifest_path.open("a") as stream:
            stream.write('{"type": "future-extension", "x": 1}\n')
        manifest = read_manifest(manifest_path)
        assert manifest.n_cells == 8


class TestFailedCellRecords:
    """failed_cell records: golden field set and round-trip."""

    @pytest.fixture(scope="class")
    def faulty_manifest(self, tmp_path_factory):
        outcome = SweepRunner(
            telemetry=True,
            faults="raise@band-4:csr:16",
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert outcome.n_failed == 1
        path = tmp_path_factory.mktemp("faulty") / "run.jsonl"
        return write_sweep_manifest(outcome, path), outcome

    def test_failed_record_fields(self, faulty_manifest):
        path, _ = faulty_manifest
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        failed = [r for r in records if r["type"] == "failed_cell"]
        assert len(failed) == 1
        record = failed[0]
        assert set(record) == GOLDEN_FAILED_CELL_FIELDS
        assert record["workload"] == "band-4"
        assert record["format"] == "csr"
        assert record["partition_size"] == 16
        assert record["error_type"] == "InjectedFault"
        assert "InjectedFault" in record["traceback"]
        assert record["recipe_digest"] == SPECS[1].recipe_digest
        # failed records sit between the cells and the summary
        assert records[-1]["type"] == "summary"
        assert records[-2]["type"] == "failed_cell"

    def test_round_trip_and_counts(self, faulty_manifest):
        path, outcome = faulty_manifest
        manifest = read_manifest(path)
        assert manifest.n_cells == 7
        assert manifest.n_failed == 1
        assert manifest.failed_coords() == {("band-4", "csr", 16)}
        assert manifest.cell_coords() == {
            (r.workload, r.format_name, r.partition_size)
            for r in outcome.results
        }
        assert manifest.counters()["sweep.cells.failed"] == 1

    def test_healthy_manifest_has_no_failed_records(self, manifest_path):
        manifest = read_manifest(manifest_path)
        assert manifest.n_failed == 0
        assert manifest.failed_coords() == set()


class TestFailureModes:
    def test_telemetry_required(self, tmp_path):
        outcome = SweepRunner().run_grid(
            SPECS[:1], ("csr",), partition_sizes=(16,)
        )
        assert outcome.telemetry is None
        with pytest.raises(ManifestError):
            write_sweep_manifest(outcome, tmp_path / "no.jsonl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            read_manifest(tmp_path / "absent.jsonl")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text('{"type": "summary", "cells": 0}\n')
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text(
            '{"type": "header", "kind": "other", "schema": 1}\n'
        )
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_unsupported_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {"type": "header", "kind": MANIFEST_KIND, "schema": 999}
            )
            + "\n"
        )
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_truncated_manifest(self, manifest_path, tmp_path):
        lines = manifest_path.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")  # no summary
        with pytest.raises(ManifestError):
            read_manifest(truncated)
