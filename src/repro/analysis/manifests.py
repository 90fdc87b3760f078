"""Rendering and diffing of sweep run manifests.

The plain-text companion of :mod:`repro.observability.manifest`:
``manifest_summary_table`` is what ``python -m repro stats <manifest>``
prints, ``manifest_diff_table`` is the ``--against`` regression view
(built on :func:`repro.analysis.compare.compare_records`), and
``profile_table`` summarizes live :class:`~repro.engine.RunTelemetry`
for ``repro sweep --profile``.
"""

from __future__ import annotations

from ..observability.manifest import Manifest
from .compare import DEFAULT_METRICS, compare_records, comparison_table
from .tables import format_table

__all__ = [
    "manifest_summary_table",
    "manifest_diff_table",
    "profile_table",
]


def _cache_rows(cache: dict) -> list[list]:
    hits = cache.get("hits", {})
    misses = cache.get("misses", {})
    rows = []
    for kind in sorted(set(hits) | set(misses)):
        hit, miss = hits.get(kind, 0), misses.get(kind, 0)
        total = hit + miss
        rate = hit / total if total else 0.0
        rows.append([kind, hit, miss, f"{rate:.1%}"])
    return rows


def manifest_summary_table(
    manifest: Manifest, slowest: int = 5
) -> str:
    """Human-readable digest of one run manifest."""
    header = manifest.header
    overview = format_table(
        ["field", "value"],
        [
            ["cells", manifest.n_cells],
            ["workloads", len(header.get("workloads", ()))],
            ["formats", ", ".join(header.get("formats", ()))],
            [
                "partition sizes",
                ", ".join(
                    str(p) for p in header.get("partition_sizes", ())
                ),
            ],
            ["workers", manifest.workers],
            ["chunks", header.get("n_chunks", 1)],
            ["wall time (s)", f"{manifest.wall_s:.3f}"],
            ["failed cells", manifest.n_failed],
        ],
        title="Sweep run manifest",
    )
    blocks = [overview]

    if manifest.failed:
        blocks.append(
            format_table(
                ["workload", "format", "p", "error", "attempts"],
                [
                    [
                        f["workload"],
                        f["format"],
                        f["partition_size"],
                        f"{f['error_type']}: {f['message']}"[:60],
                        f.get("attempts", 1),
                    ]
                    for f in manifest.failed
                ],
                title=f"Failed cells ({manifest.n_failed})",
            )
        )

    cache_rows = _cache_rows(manifest.cache_counters())
    if cache_rows:
        blocks.append(
            format_table(
                ["kind", "hits", "misses", "hit rate"],
                cache_rows,
                title="Cache effectiveness",
            )
        )

    by_workload: dict[str, list[dict]] = {}
    for cell in manifest.cells:
        by_workload.setdefault(cell["workload"], []).append(cell)
    if by_workload:
        blocks.append(
            format_table(
                ["workload", "cells", "wall (s)", "mean cycles"],
                [
                    [
                        name,
                        len(cells),
                        sum(c["wall_s"] for c in cells),
                        sum(c["total_cycles"] for c in cells)
                        / len(cells),
                    ]
                    for name, cells in sorted(by_workload.items())
                ],
                title="Per-workload totals",
            )
        )

    if slowest > 0 and manifest.cells:
        ranked = sorted(
            manifest.cells, key=lambda c: c["wall_s"], reverse=True
        )[:slowest]
        blocks.append(
            format_table(
                ["workload", "format", "p", "wall (ms)", "cycles"],
                [
                    [
                        c["workload"],
                        c["format"],
                        c["partition_size"],
                        c["wall_s"] * 1e3,
                        c["total_cycles"],
                    ]
                    for c in ranked
                ],
                title=f"Slowest {len(ranked)} cells",
            )
        )
    return "\n\n".join(blocks)


def manifest_diff_table(
    before: Manifest,
    after: Manifest,
    min_relative: float = 0.01,
    limit: int = 20,
    metrics: tuple[str, ...] = DEFAULT_METRICS,
) -> str:
    """Cell-by-cell regression diff of two manifests.

    Model metrics (``total_cycles``, ``sigma``, ...) are deterministic,
    so any delta there is a real behavior change; ``wall_s`` deltas
    flag perf regressions of the runner itself (noisy — read with the
    usual benchmarking caveats).
    """
    lines = []
    removed = before.cell_coords() - after.cell_coords()
    added = after.cell_coords() - before.cell_coords()
    if removed:
        lines.append(f"cells only in baseline: {len(removed)}")
    if added:
        lines.append(f"cells only in new run: {len(added)}")
    deltas = compare_records(
        list(before.cells),
        list(after.cells),
        metrics=metrics,
        min_relative=min_relative,
    )
    if not deltas:
        lines.append(
            "no metric changes above the threshold "
            f"({min_relative:.1%}) on the shared cells"
        )
    else:
        lines.append(comparison_table(deltas, limit=limit))
    return "\n".join(lines)


def profile_table(telemetry, slowest: int = 5) -> str:
    """Summary of live :class:`~repro.engine.RunTelemetry`."""
    metrics = telemetry.metrics
    cell_timer = metrics.timer("sweep.cell")
    overview = format_table(
        ["field", "value"],
        [
            ["cells", len(telemetry.cells)],
            ["workers", telemetry.workers],
            ["chunks", telemetry.n_chunks],
            ["wall time (s)", f"{telemetry.wall_s:.3f}"],
            ["cell time total (s)", f"{cell_timer.total_s:.3f}"],
            ["cell time mean (ms)", f"{cell_timer.mean_s * 1e3:.2f}"],
        ],
        title="Sweep profile",
    )
    blocks = [overview]
    cache_counters = metrics.counters_with_prefix("cache.")
    if cache_counters:
        blocks.append(
            format_table(
                ["counter", "value"],
                [
                    [name, value]
                    for name, value in sorted(cache_counters.items())
                ],
                title="Cache counters",
            )
        )
    recovery_names = (
        "sweep.cells.failed", "sweep.cells.replayed",
        "sweep.pool_restarts", "sweep.chunk_retries",
        "sweep.chunk_bisections", "sweep.degraded",
    )
    recovery = {
        name: metrics.counter(name)
        for name in recovery_names
        if metrics.counter(name)
    }
    if recovery:
        blocks.append(
            format_table(
                ["counter", "value"],
                [[name, value] for name, value in sorted(recovery.items())],
                title="Robustness counters",
            )
        )
    if slowest > 0 and telemetry.cells:
        ranked = sorted(
            telemetry.cells, key=lambda c: c.wall_s, reverse=True
        )[:slowest]
        blocks.append(
            format_table(
                ["workload", "format", "p", "wall (ms)"],
                [
                    [
                        c.workload,
                        c.format_name,
                        c.partition_size,
                        c.wall_s * 1e3,
                    ]
                    for c in ranked
                ],
                title=f"Slowest {len(ranked)} cells",
            )
        )
    return "\n\n".join(blocks)
