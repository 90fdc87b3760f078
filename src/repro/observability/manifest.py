"""JSON-lines run manifests: the machine-readable record of a sweep.

A manifest is one file per sweep run, written as JSON lines so large
grids stream instead of buffering:

* line 1 — a ``header`` record: schema version, grid dimensions,
  worker count and the *recipe digest* of every workload (a content
  digest of the generator parameters for spec-built workloads, of the
  matrix triplets for materialized ones), so two runs of the same grid
  are recognizably the same experiment;
* one ``cell`` record per grid cell: coordinates, the matrix cache
  key, the cell's wall-clock seconds and every derived metric of its
  :class:`~repro.core.CharacterizationResult` (cycles, bytes, timing,
  power, energy, clock and FPGA resources), so a manifest is the one
  saved-results format and :func:`repro.analysis.compare_records`
  diffs two of them directly;
* one ``failed_cell`` record per cell that produced no result under
  ``error_policy="collect"``: coordinates, the workload recipe digest,
  the exception type, message, the worker-side formatted traceback and
  the number of dispatch attempts;
* a final ``summary`` record: total wall time, merged cache hit/miss
  counters and the merged :class:`~repro.observability.MetricsRegistry`
  snapshot (which carries the robustness counters —
  ``sweep.cells.failed``, ``sweep.cells.replayed``,
  ``sweep.pool_restarts``, ``sweep.chunk_retries``,
  ``sweep.chunk_bisections``, ``sweep.degraded``).

``python -m repro stats <manifest>`` renders the summary;
``python -m repro stats <manifest> --against <baseline>`` diffs two
runs cell by cell to surface perf regressions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .. import io_atomic
from ..errors import ManifestError

__all__ = [
    "SCHEMA_VERSION",
    "MANIFEST_KIND",
    "Manifest",
    "write_sweep_manifest",
    "read_manifest",
]

#: Bump on any backwards-incompatible record change.
#: 2: cell records gained the framed-transfer accounting
#: (``framed_total_bytes`` / ``framing_overhead_bytes``).
#: 3: cell records gained timing, power, energy, clock, partition
#: count and resource fields (``total_seconds`` ... ``lut``).
SCHEMA_VERSION = 3

#: Value of the header's ``kind`` field.
MANIFEST_KIND = "copernicus-sweep-manifest"

#: Per-cell metric fields copied from each CharacterizationResult.
CELL_METRIC_FIELDS = (
    "total_cycles",
    "memory_cycles",
    "compute_cycles",
    "decompress_cycles",
    "sigma",
    "balance_ratio",
    "total_bytes",
    "framed_total_bytes",
    "framing_overhead_bytes",
    "bandwidth_utilization",
    "total_seconds",
    "throughput_bytes_per_s",
    "dynamic_power_w",
    "static_power_w",
    "energy_j",
    "clock_mhz",
)


#: Fields of a ``failed_cell`` record (see README "FailedCell record").
FAILED_CELL_FIELDS = (
    "index",
    "workload",
    "format",
    "partition_size",
    "recipe_digest",
    "error_type",
    "message",
    "traceback",
    "attempts",
)


@dataclass(frozen=True)
class Manifest:
    """A parsed run manifest: header, cell records, failures, summary."""

    header: dict
    cells: tuple[dict, ...]
    summary: dict
    failed: tuple[dict, ...] = ()

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_failed(self) -> int:
        return len(self.failed)

    @property
    def wall_s(self) -> float:
        return float(self.summary.get("wall_s", 0.0))

    @property
    def workers(self) -> int:
        return int(self.header.get("workers", 1))

    def cell_coords(self) -> set[tuple[str, str, int]]:
        """The (workload, format, partition size) set this run covered."""
        return {
            (c["workload"], c["format"], c["partition_size"])
            for c in self.cells
        }

    def failed_coords(self) -> set[tuple[str, str, int]]:
        """The coordinates of every cell that produced no result."""
        return {
            (c["workload"], c["format"], c["partition_size"])
            for c in self.failed
        }

    def cache_keys(self) -> set[str]:
        """Every matrix content key the run touched."""
        return {c["cache_key"] for c in self.cells}

    def recipes(self) -> dict[str, str]:
        """Workload name -> recipe digest, from the header."""
        return {
            w["name"]: w["recipe"]
            for w in self.header.get("workloads", ())
        }

    def counters(self) -> dict[str, int]:
        """Merged counters from the summary record."""
        metrics = self.summary.get("metrics", {})
        return {
            str(k): int(v)
            for k, v in metrics.get("counters", {}).items()
        }

    def cache_counters(self) -> dict:
        """The merged cache hit/miss tables from the summary record."""
        return self.summary.get("cache", {"hits": {}, "misses": {}})


def _header_record(outcome, extra: Mapping | None) -> dict:
    telemetry = outcome.telemetry
    formats: list[str] = []
    partition_sizes: list[int] = []
    for result in outcome.results:
        if result.format_name not in formats:
            formats.append(result.format_name)
        if result.partition_size not in partition_sizes:
            partition_sizes.append(result.partition_size)
    return {
        "type": "header",
        "kind": MANIFEST_KIND,
        "schema": SCHEMA_VERSION,
        "created_unix": time.time(),
        "n_cells": len(outcome.results),
        "workers": telemetry.workers,
        "n_chunks": telemetry.n_chunks,
        "workloads": [
            {"name": name, "recipe": digest}
            for name, digest in sorted(telemetry.recipes.items())
        ],
        "formats": formats,
        "partition_sizes": partition_sizes,
        "extra": dict(extra or {}),
    }


def _cell_record(cell, result) -> dict:
    record = {
        "type": "cell",
        "index": cell.index,
        "workload": cell.workload,
        "format": cell.format_name,
        "partition_size": cell.partition_size,
        "cache_key": cell.cache_key,
        "wall_s": cell.wall_s,
    }
    for name in CELL_METRIC_FIELDS:
        value = getattr(result, name)
        record[name] = (
            value if isinstance(value, int) else float(value)
        )
    record["n_partitions"] = int(result.pipeline.n_partitions)
    for name in ("bram_18k", "ff", "lut"):
        record[name] = int(getattr(result.resources, name))
    return record


def _failed_record(failed) -> dict:
    return {
        "type": "failed_cell",
        "index": failed.index,
        "workload": failed.workload,
        "format": failed.format_name,
        "partition_size": failed.partition_size,
        "recipe_digest": failed.recipe_digest,
        "error_type": failed.error_type,
        "message": failed.message,
        "traceback": failed.traceback_text,
        "attempts": failed.attempts,
    }


def _summary_record(outcome) -> dict:
    telemetry = outcome.telemetry
    return {
        "type": "summary",
        "cells": len(outcome.results),
        "wall_s": telemetry.wall_s,
        "cache": {
            "hits": dict(outcome.stats.hits),
            "misses": dict(outcome.stats.misses),
        },
        "metrics": telemetry.metrics.snapshot(),
    }


def write_sweep_manifest(
    outcome, path: str | Path, extra: Mapping | None = None
) -> Path:
    """Write one sweep outcome as a JSON-lines manifest.

    Requires the sweep to have run with telemetry enabled
    (``SweepRunner(telemetry=True)`` / ``repro sweep --profile`` /
    ``--emit-metrics``); raises :class:`ManifestError` otherwise.
    """
    telemetry = getattr(outcome, "telemetry", None)
    if telemetry is None:
        raise ManifestError(
            "sweep ran without telemetry; construct the runner with "
            "telemetry=True (CLI: --profile / --emit-metrics) to emit "
            "a manifest"
        )
    spans = sorted(telemetry.cells, key=lambda cell: cell.index)
    if len(spans) != len(outcome.results):
        raise ManifestError(
            f"telemetry covers {len(spans)} cells but the outcome "
            f"has {len(outcome.results)} results"
        )
    records = [_header_record(outcome, extra)]
    # spans and results are both in grid order (failed cells absent
    # from both), so they align positionally
    for cell, result in zip(spans, outcome.results):
        records.append(_cell_record(cell, result))
    for failed in getattr(outcome, "failures", ()):
        records.append(_failed_record(failed))
    records.append(_summary_record(outcome))

    path = Path(path)
    lines = "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in records
    )
    return io_atomic.atomic_write_text(path, lines)


def read_manifest(path: str | Path) -> Manifest:
    """Parse and validate a JSON-lines manifest file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ManifestError(
            f"cannot read manifest {path}: {error}"
        ) from error

    header: dict | None = None
    cells: list[dict] = []
    failed: list[dict] = []
    summary: dict | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ManifestError(
                f"{path}:{lineno}: invalid JSON: {error}"
            ) from error
        if not isinstance(record, dict):
            raise ManifestError(
                f"{path}:{lineno}: manifest records must be objects"
            )
        kind = record.get("type")
        if kind == "header":
            if header is not None:
                raise ManifestError(f"{path}: duplicate header record")
            header = record
        elif kind == "cell":
            cells.append(record)
        elif kind == "failed_cell":
            failed.append(record)
        elif kind == "summary":
            summary = record
        # unknown record types are skipped for forward compatibility

    if header is None:
        raise ManifestError(f"{path}: no header record")
    if header.get("kind") != MANIFEST_KIND:
        raise ManifestError(
            f"{path}: not a sweep manifest (kind={header.get('kind')!r})"
        )
    if header.get("schema") != SCHEMA_VERSION:
        raise ManifestError(
            f"{path}: unsupported manifest schema "
            f"{header.get('schema')!r} (expected {SCHEMA_VERSION})"
        )
    if summary is None:
        raise ManifestError(
            f"{path}: no summary record (truncated manifest?)"
        )
    return Manifest(
        header=header,
        cells=tuple(cells),
        summary=summary,
        failed=tuple(failed),
    )
