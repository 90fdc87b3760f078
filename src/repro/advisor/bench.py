"""The measured accuracy contract: ``bench_advisor/v1``.

A trained advisor is only trustworthy if its error is measured and
pinned.  This module computes, on the held-out workload split the
model never trained on:

* **Spearman rank correlation** between the predicted and exact
  rankings of every (format, partition size) design point, per
  workload (average-rank ties, pure numpy);
* **top-1 / top-3 agreement** — does the predicted winner match the
  exact winner / land in the exact top three;
* **latency** — wall time of the fast path vs the exact advise path
  on paper-scale matrices, best-of-``repeats``.

The report is versioned (``bench_advisor/v1``), golden-schema tested,
and gated in CI (``repro advisor bench --require-spearman 0.9
--require-top3 0.95 --require-speedup 50``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import io_atomic
from ..bench import _best_time
from ..core.recommend import recommend
from ..engine.specs import WorkloadSpec
from ..errors import AdvisorError
from ..observability import machine_metadata
from .model import AdvisorModel
from .predict import recommend_fast

__all__ = [
    "BENCH_ADVISOR_SCHEMA",
    "rankdata",
    "spearman",
    "default_latency_specs",
    "bench_advisor",
    "write_advisor_report",
]

#: Version tag of the accuracy/latency report.
BENCH_ADVISOR_SCHEMA = "bench_advisor/v1"


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Average ranks (1-based), ties shared — scipy-free rankdata."""
    array = np.asarray(values, dtype=np.float64)
    order = np.argsort(array, kind="stable")
    ranks = np.empty(array.size, dtype=np.float64)
    ranks[order] = np.arange(1, array.size + 1, dtype=np.float64)
    # average the rank across each tied group
    sorted_vals = array[order]
    index = 0
    while index < array.size:
        stop = index
        while (
            stop + 1 < array.size
            and sorted_vals[stop + 1] == sorted_vals[index]
        ):
            stop += 1
        if stop > index:
            ranks[order[index:stop + 1]] = (index + stop) / 2.0 + 1.0
        index = stop + 1
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    ra, rb = rankdata(a), rankdata(b)
    if ra.size < 2:
        return 1.0
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        return 1.0
    return float(da @ db) / denom


def default_latency_specs(n: int = 2048) -> tuple[WorkloadSpec, ...]:
    """Paper-scale matrices for the exact-vs-fast wall-time contest.

    Large enough that the exact path's per-partition-size profiling
    dominates, which is exactly the cost the advisor amortizes away.
    """
    return (
        WorkloadSpec.random(
            n, 0.05, seed=11, name=f"lat-rand-n{n}-d0.05"
        ),
        WorkloadSpec.random(
            n, 0.01, seed=12, name=f"lat-rand-n{n}-d0.01"
        ),
        WorkloadSpec.band(
            n, 256, seed=13, name=f"lat-band-n{n}-w256"
        ),
    )


def _exact_cycles(
    matrix, formats, partitions
) -> dict[tuple[str, int], float]:
    result = recommend(
        matrix, "latency", formats=formats, partition_sizes=partitions
    )
    return {
        (r.format_name, r.partition_size): float(r.total_cycles)
        for r in result.candidates + result.rejected
    }


def bench_advisor(
    model: AdvisorModel,
    heldout: Sequence[WorkloadSpec],
    *,
    repeats: int = 3,
    latency_specs: Sequence[WorkloadSpec] | None = None,
) -> dict:
    """Measure the accuracy contract on the held-out split."""
    if not heldout:
        raise AdvisorError("need >= 1 held-out workload to benchmark")
    formats = model.formats
    partitions = model.partitions
    keys = [
        (name, p)
        for p in sorted(partitions)
        for name in sorted(formats)
    ]
    per_workload = []
    for spec in heldout:
        matrix = spec.build().matrix
        exact = _exact_cycles(matrix, formats, partitions)
        predicted = model.predict_matrix(matrix)
        exact_values = [exact[k] for k in keys]
        predicted_values = [predicted[k] for k in keys]
        exact_order = sorted(keys, key=lambda k: exact[k])
        predicted_best = min(keys, key=lambda k: predicted[k])
        per_workload.append(
            {
                "workload": spec.name,
                "recipe_digest": spec.recipe_digest,
                "spearman": spearman(exact_values, predicted_values),
                "exact_best": list(exact_order[0]),
                "predicted_best": list(predicted_best),
                "top1": predicted_best == exact_order[0],
                "top3": predicted_best in exact_order[:3],
            }
        )

    latency_rows = []
    for spec in latency_specs or default_latency_specs():
        matrix = spec.build().matrix
        exact_s = _best_time(
            lambda: recommend(
                matrix, "latency",
                formats=formats, partition_sizes=partitions,
            ),
            repeats,
        )
        fast_s = _best_time(
            lambda: recommend_fast(
                matrix, model, margin_threshold=0.0, verify=False
            ),
            repeats,
        )
        latency_rows.append(
            {
                "workload": spec.name,
                "nnz": matrix.nnz,
                "exact_ms": exact_s * 1e3,
                "fast_ms": fast_s * 1e3,
                "speedup": exact_s / fast_s if fast_s else math.inf,
            }
        )

    spearmen = [w["spearman"] for w in per_workload]
    speedups = [r["speedup"] for r in latency_rows]
    return {
        "schema": BENCH_ADVISOR_SCHEMA,
        "machine": machine_metadata(),
        "model": {
            "digest": model.digest,
            "feature_p": model.feature_p,
            "n_features": len(model.mean),
            "n_heads": len(model.heads),
            "ridge_lambda": model.ridge_lambda,
            "training": dict(model.training),
        },
        "config": {
            "objective": "latency",
            "formats": list(formats),
            "partitions": list(partitions),
            "n_heldout": len(per_workload),
            "n_cells": len(keys),
            "repeats": repeats,
        },
        "accuracy": {
            "spearman_mean": float(np.mean(spearmen)),
            "spearman_min": float(np.min(spearmen)),
            "top1_agreement": float(
                np.mean([w["top1"] for w in per_workload])
            ),
            "top3_agreement": float(
                np.mean([w["top3"] for w in per_workload])
            ),
        },
        "latency": {
            "per_workload": latency_rows,
            "exact_ms_geomean": _geomean(
                [r["exact_ms"] for r in latency_rows]
            ),
            "fast_ms_geomean": _geomean(
                [r["fast_ms"] for r in latency_rows]
            ),
            "speedup_geomean": _geomean(speedups),
            "speedup_min": float(min(speedups, default=0.0)),
        },
        "per_workload": per_workload,
    }


def _geomean(values: Sequence[float]) -> float:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return 0.0
    return float(
        math.exp(sum(math.log(v) for v in finite) / len(finite))
    )


def write_advisor_report(report: dict, path: str | Path) -> Path:
    """Write the ``BENCH_advisor.json`` report (stable key order)."""
    return io_atomic.atomic_write_text(
        Path(path),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
