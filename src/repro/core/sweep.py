"""Aggregation helpers over sweep results.

Every figure in the paper is a slice of the same experiment cube
(workload x format x partition size).  The cube itself is evaluated by
:func:`repro.engine.run_sweep`; this module filters and averages the
flat result list it returns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..formats.registry import PAPER_FORMATS
from .results import CharacterizationResult

__all__ = [
    "mean_sigma_by_format",
    "mean_metric",
    "group_results",
]


def group_results(
    results: Sequence[CharacterizationResult],
    format_name: str | None = None,
    partition_size: int | None = None,
    workload: str | None = None,
) -> list[CharacterizationResult]:
    """Filter a result list by any combination of coordinates."""
    selected = list(results)
    if format_name is not None:
        selected = [r for r in selected if r.format_name == format_name]
    if partition_size is not None:
        selected = [r for r in selected if r.partition_size == partition_size]
    if workload is not None:
        selected = [r for r in selected if r.workload == workload]
    return selected


def mean_metric(
    results: Sequence[CharacterizationResult], metric: str
) -> float:
    """Average a named result attribute over a result list."""
    if not results:
        return float("nan")
    return float(np.mean([getattr(r, metric) for r in results]))


def mean_sigma_by_format(
    results: Sequence[CharacterizationResult],
    format_names: Sequence[str] = PAPER_FORMATS,
    partition_size: int | None = None,
) -> dict[str, float]:
    """Average sigma per format (the Figure 7 aggregation)."""
    return {
        name: mean_metric(
            group_results(results, format_name=name,
                          partition_size=partition_size),
            "sigma",
        )
        for name in format_names
    }
