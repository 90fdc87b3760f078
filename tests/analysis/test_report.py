"""Characterization report tests."""

from __future__ import annotations

import hashlib
from unittest import mock

import pytest

from repro.analysis import characterization_report
from repro.core import Constraints, SpmvSimulator
from repro.workloads import random_matrix


@pytest.fixture(scope="module")
def report() -> str:
    matrix = random_matrix(128, 0.05, seed=0)
    return characterization_report(matrix, name="unit-test")


class TestReportSections:
    def test_header(self, report):
        assert report.startswith("# Copernicus characterization")
        assert "unit-test" in report

    def test_partition_statistics_section(self, report):
        assert "Partition statistics" in report
        assert "row density" in report

    def test_metric_grid_covers_all_partition_sizes(self, report):
        for p in (8, 16, 32):
            assert f"partition size {p}" in report

    def test_all_paper_formats_present(self, report):
        for name in ("dense", "csr", "bcsr", "csc", "lil", "ell",
                     "coo", "dia"):
            assert name in report

    def test_summary_section(self, report):
        assert "Normalized scores" in report
        assert "overall" in report

    def test_timeline_section(self, report):
        assert "Pipeline timelines" in report
        assert "bubbles:" in report

    def test_recommendation_section(self, report):
        assert "## Recommendation" in report
        assert "optimize latency:" in report
        assert "optimize bandwidth:" in report
        assert "optimize energy:" in report


class TestReportOptions:
    def test_constraints_forwarded(self):
        matrix = random_matrix(96, 0.05, seed=1)
        text = characterization_report(
            matrix, constraints=Constraints(max_bram_18k=4)
        )
        assert "optimize latency:" in text

    def test_custom_format_list(self):
        matrix = random_matrix(96, 0.05, seed=2)
        text = characterization_report(
            matrix, formats=("dense", "coo", "csr")
        )
        assert "bcsr" not in text


class TestSingleGrid:
    """The report evaluates one grid and prints what it always did."""

    def test_one_run_format_call_per_cell(self):
        calls = []
        run_format = SpmvSimulator.run_format

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return run_format(self, *args, **kwargs)

        with mock.patch.object(SpmvSimulator, "run_format", counting):
            characterization_report(random_matrix(128, 0.05, seed=0))
        # PAPER_FORMATS x partition sizes (8, 16, 32), each cell once
        assert len(calls) == 8 * 3

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                {"name": "digest"},
                "963c3c9a4ee989e45f031ebe2a5ee696"
                "774ecae6631489d63b07a1b16eff4dd5",
            ),
            (
                {
                    "name": "subset",
                    "formats": ("csr", "coo"),
                    "constraints": Constraints(max_lut=3000),
                },
                "eee2dd79cbcead51c8c8b3fa4be511b2"
                "d0ba5fbec6cf8b678d65387ded23d2de",
            ),
        ],
    )
    def test_report_text_is_pinned(self, kwargs, digest):
        text = characterization_report(
            random_matrix(128, 0.05, seed=0), **kwargs
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest
