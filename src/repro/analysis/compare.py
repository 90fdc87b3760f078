"""A/B comparison of saved characterization results.

Model constants, workload scales and format implementations all
evolve; this module diffs the cell records of two run manifests
(:mod:`repro.observability.manifest`, the one saved-results format)
coordinate by coordinate and reports the metric deltas — the
regression-tracking view behind ``repro stats NEW --against BASE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import SimulationError
from .tables import format_table

__all__ = ["MetricDelta", "compare_records", "comparison_table"]

#: Cell metrics compared by default (and by ``repro stats --against``).
DEFAULT_METRICS = (
    "total_cycles",
    "sigma",
    "balance_ratio",
    "total_bytes",
    "framed_total_bytes",
    "throughput_bytes_per_s",
    "bandwidth_utilization",
    "dynamic_power_w",
    "wall_s",
)


def _key(record: dict) -> tuple:
    return (
        record.get("workload"),
        record.get("format"),
        record.get("partition_size"),
    )


@dataclass(frozen=True)
class MetricDelta:
    """One metric's change at one experiment coordinate."""

    workload: str
    format_name: str
    partition_size: int
    metric: str
    before: float
    after: float

    @property
    def absolute(self) -> float:
        return self.after - self.before

    @property
    def relative(self) -> float:
        """Relative change; 0 for unchanged, inf for 0 -> non-zero."""
        if self.before == 0.0:
            return float("inf") if self.after != 0.0 else 0.0
        return (self.after - self.before) / abs(self.before)


def compare_records(
    before: Sequence[dict],
    after: Sequence[dict],
    metrics: Sequence[str] = DEFAULT_METRICS,
    min_relative: float = 0.0,
) -> list[MetricDelta]:
    """Diff two record sets over their shared coordinates.

    Returns one :class:`MetricDelta` per (coordinate, metric) whose
    relative change exceeds ``min_relative``, sorted by magnitude.
    """
    before_by_key = {_key(r): r for r in before}
    after_by_key = {_key(r): r for r in after}
    shared = sorted(
        set(before_by_key) & set(after_by_key),
        key=lambda k: tuple(str(part) for part in k),
    )
    if not shared:
        raise SimulationError(
            "the record sets share no (workload, format, partition) "
            "coordinates"
        )
    deltas = []
    for key in shared:
        old, new = before_by_key[key], after_by_key[key]
        for metric in metrics:
            if metric not in old or metric not in new:
                continue
            delta = MetricDelta(
                workload=key[0],
                format_name=key[1],
                partition_size=key[2],
                metric=metric,
                before=float(old[metric]),
                after=float(new[metric]),
            )
            if abs(delta.relative) > min_relative:
                deltas.append(delta)
    deltas.sort(key=lambda d: abs(d.relative), reverse=True)
    return deltas


def comparison_table(
    deltas: Sequence[MetricDelta], limit: int = 20
) -> str:
    """Render the largest deltas as a text table."""
    rows = [
        [
            d.workload,
            d.format_name,
            d.partition_size,
            d.metric,
            d.before,
            d.after,
            f"{d.relative:+.1%}" if d.relative != float("inf") else "new",
        ]
        for d in deltas[:limit]
    ]
    return format_table(
        ["workload", "format", "p", "metric", "before", "after", "delta"],
        rows,
        title=f"Top {min(limit, len(deltas))} metric changes "
        f"({len(deltas)} total)",
    )
