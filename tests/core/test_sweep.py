"""Sweep tests: grid order on :func:`run_sweep` and the aggregation
helpers over its results."""

from __future__ import annotations

import math

import pytest

from repro.core import group_results, mean_metric, mean_sigma_by_format
from repro.engine import run_sweep
from repro.hardware import HardwareConfig
from repro.workloads import Workload, random_matrix

FORMATS = ("dense", "csr", "coo")


def workload(name: str = "w", density: float = 0.1, seed: int = 0) -> Workload:
    return Workload(
        name=name, group="random",
        matrix=random_matrix(64, density, seed=seed), parameter=density,
    )


class TestSweeps:
    def test_sweep_formats_order(self):
        results = run_sweep([workload()], FORMATS, (16,)).results
        assert [r.format_name for r in results] == list(FORMATS)

    def test_sweep_partition_sizes_cube(self):
        results = run_sweep(
            [workload()], FORMATS, partition_sizes=(8, 16)
        ).results
        assert len(results) == len(FORMATS) * 2
        assert {r.partition_size for r in results} == {8, 16}

    def test_full_sweep(self):
        results = run_sweep(
            [workload("a"), workload("b", seed=1)],
            FORMATS,
            partition_sizes=(8,),
        ).results
        assert len(results) == 2 * len(FORMATS)
        assert {r.workload for r in results} == {"a", "b"}

    def test_sweep_respects_base_config(self):
        config = HardwareConfig(partition_size=16, clock_mhz=100.0)
        results = run_sweep(
            [workload()], ("dense",), partition_sizes=(8,),
            base_config=config,
        ).results
        assert results[0].clock_mhz == 100.0
        assert results[0].partition_size == 8


class TestAggregation:
    def make_results(self):
        return run_sweep(
            [workload("a"), workload("b", seed=1)],
            FORMATS,
            partition_sizes=(8, 16),
        ).results

    def test_group_by_format(self):
        results = self.make_results()
        csr = group_results(results, format_name="csr")
        assert len(csr) == 4
        assert all(r.format_name == "csr" for r in csr)

    def test_group_by_all_coordinates(self):
        results = self.make_results()
        one = group_results(
            results, format_name="coo", partition_size=16, workload="a"
        )
        assert len(one) == 1

    def test_mean_metric(self):
        results = group_results(
            self.make_results(), format_name="dense"
        )
        assert mean_metric(results, "sigma") == pytest.approx(1.0)

    def test_mean_metric_empty_is_nan(self):
        assert math.isnan(mean_metric([], "sigma"))

    def test_mean_sigma_by_format(self):
        results = self.make_results()
        sigmas = mean_sigma_by_format(results, FORMATS, partition_size=16)
        assert set(sigmas) == set(FORMATS)
        assert sigmas["dense"] == pytest.approx(1.0)
