"""A/B comparison tests."""

from __future__ import annotations

import pytest

from repro.analysis.compare import (
    MetricDelta,
    compare_records,
    comparison_table,
)
from repro.engine import SweepRunner
from repro.errors import SimulationError
from repro.observability import read_manifest
from repro.workloads import Workload, random_matrix


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("compare")


@pytest.fixture()
def records_for(manifest_dir):
    """Manifest cell records of one seeded three-format sweep."""

    def build(seed: int) -> list[dict]:
        load = Workload(
            "w", "random", random_matrix(64, 0.1, seed=seed), 0.1
        )
        outcome = SweepRunner(telemetry=True).run_grid(
            [load], ("dense", "csr", "coo"), partition_sizes=(16,)
        )
        path = outcome.write_manifest(manifest_dir / f"seed{seed}.jsonl")
        return list(read_manifest(path).cells)

    return build


class TestMetricDelta:
    def test_relative(self):
        delta = MetricDelta("w", "csr", 16, "sigma", 2.0, 3.0)
        assert delta.absolute == 1.0
        assert delta.relative == 0.5

    def test_zero_before(self):
        delta = MetricDelta("w", "csr", 16, "sigma", 0.0, 1.0)
        assert delta.relative == float("inf")
        unchanged = MetricDelta("w", "csr", 16, "sigma", 0.0, 0.0)
        assert unchanged.relative == 0.0


class TestCompareRecords:
    def test_identical_sets_below_threshold(self, records_for):
        records = records_for(0)
        deltas = compare_records(records, records, min_relative=1e-12)
        assert deltas == []

    def test_changed_workload_produces_deltas(self, records_for):
        before = records_for(0)
        after = records_for(1)  # different matrix -> different metrics
        deltas = compare_records(before, after, min_relative=1e-12)
        assert deltas
        assert all(isinstance(d, MetricDelta) for d in deltas)

    def test_sorted_by_magnitude(self, records_for):
        deltas = compare_records(
            records_for(0), records_for(1), min_relative=0.0
        )
        magnitudes = [abs(d.relative) for d in deltas]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_threshold_filters(self, records_for):
        before = records_for(0)
        after = [dict(r) for r in before]
        after[0]["sigma"] = after[0]["sigma"] * 1.5 + 0.1
        deltas = compare_records(before, after, min_relative=0.10)
        assert len(deltas) == 1
        assert deltas[0].metric == "sigma"

    def test_disjoint_sets_rejected(self, records_for):
        before = records_for(0)
        moved = [dict(r, workload="other") for r in before]
        with pytest.raises(SimulationError):
            compare_records(before, moved)

    def test_missing_metric_skipped(self, records_for):
        before = records_for(0)
        after = [dict(r) for r in before]
        for record in after:
            record.pop("sigma")
        deltas = compare_records(before, after, min_relative=1e-12)
        assert all(d.metric != "sigma" for d in deltas)


class TestComparisonTable:
    def test_renders(self, records_for):
        deltas = compare_records(
            records_for(0), records_for(1), min_relative=0.0
        )
        table = comparison_table(deltas, limit=5)
        assert "metric" in table
        assert "delta" in table

    def test_limit_respected(self, records_for):
        deltas = compare_records(
            records_for(0), records_for(1), min_relative=0.0
        )
        table = comparison_table(deltas, limit=3)
        # header + underline + title + <= 3 rows
        assert len(table.splitlines()) <= 6
