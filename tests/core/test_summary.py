"""Figure 14 normalized summary tests."""

from __future__ import annotations

import pytest

from repro.core import SUMMARY_METRICS, summarize
from repro.engine import run_sweep
from repro.errors import SimulationError
from repro.formats import PAPER_FORMATS
from repro.workloads import Workload, random_matrix


def results_for(density: float = 0.05):
    load = Workload(
        "w", "random", random_matrix(96, density, seed=0), density
    )
    return run_sweep([load], PAPER_FORMATS, (16,)).results


class TestSummarize:
    def test_scores_cover_all_metrics(self):
        scores = summarize(results_for(), PAPER_FORMATS)
        assert len(scores) == len(PAPER_FORMATS)
        for score in scores:
            assert set(score.scores) == set(SUMMARY_METRICS)

    def test_scores_in_unit_interval(self):
        for score in summarize(results_for(), PAPER_FORMATS):
            for metric, value in score.scores.items():
                assert 0.0 <= value <= 1.0, (score.format_name, metric)

    def test_each_metric_has_a_best_and_worst(self):
        scores = summarize(results_for(), PAPER_FORMATS)
        for metric in SUMMARY_METRICS:
            values = [s.scores[metric] for s in scores]
            assert max(values) == pytest.approx(1.0)
            assert min(values) == pytest.approx(0.0)

    def test_coo_wins_bandwidth_on_sparse_random(self):
        """Figure 10/14: nothing beats COO's constant 1/3 at low density."""
        scores = {
            s.format_name: s for s in summarize(results_for(0.01),
                                                PAPER_FORMATS)
        }
        assert scores["coo"].scores["bandwidth_utilization"] == 1.0

    def test_csc_scores_worst_overhead(self):
        scores = {
            s.format_name: s
            for s in summarize(results_for(0.3), PAPER_FORMATS)
        }
        assert scores["csc"].scores["overhead"] == 0.0

    def test_overall_mean(self):
        score = summarize(results_for(), PAPER_FORMATS)[0]
        assert score.overall == pytest.approx(
            sum(score.scores.values()) / len(score.scores)
        )

    def test_empty_results_rejected(self):
        with pytest.raises(SimulationError):
            summarize([], PAPER_FORMATS)

    def test_missing_format_rejected(self):
        results = results_for()
        with pytest.raises(SimulationError):
            summarize(results, PAPER_FORMATS + ("sell",))
