#!/usr/bin/env python
"""Regenerate every paper figure's series in one run.

A compact version of the benchmark harness: smaller workloads, every
figure's numbers printed, and the full result cube saved as one run
manifest per workload group (``PREFIX.<group>.manifest.jsonl``) for
external plotting; inspect or diff them with ``python -m repro stats``.
For the asserted, full-scale versions run
``pytest benchmarks/ --benchmark-only -s``.

The whole cube runs through the sweep engine; pass ``--workers N`` to
fan the workloads out over N processes.

Run:  python examples/paper_figures.py [PREFIX] [--workers N]
"""

from __future__ import annotations

import argparse

try:
    import repro  # noqa: F401 — probe for an installed package
except ModuleNotFoundError:  # running from a source checkout
    import pathlib
    import sys

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
    )

from repro.analysis import bar_chart, grouped_series
from repro.core import summarize
from repro.engine import SweepRunner
from repro.formats import PAPER_FORMATS
from repro.partition import PARTITION_SIZES, partition_statistics
from repro.workloads import band_suite, random_suite, suitesparse_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "prefix", nargs="?", default="copernicus_results",
        help="manifest path prefix (default: copernicus_results)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep engine (default: 1)",
    )
    args = parser.parse_args()
    groups = {
        "suitesparse": suitesparse_suite(max_dim=1024, seed=0),
        "random": random_suite(n=512, seed=0),
        "band": band_suite(n=1024, seed=0),
    }

    # Figure 3: density statistics of the SuiteSparse stand-ins.
    print("== Figure 3: partition density (p = 16), SuiteSparse ==")
    densities = {
        load.name: 100.0
        * partition_statistics(load.matrix, 16).avg_partition_density
        for load in groups["suitesparse"]
    }
    print(bar_chart(densities, log_scale=True))
    print()

    # Figures 4-7 and 10-12 come from the same cube, swept through the
    # engine: partition profiles are computed once per (workload, p)
    # and shared by all eight formats.
    runner = SweepRunner(
        max_workers=args.workers, telemetry=True, error_policy="fail_fast"
    )
    cube: dict[tuple[str, str, int], object] = {}
    for group_name, workloads in groups.items():
        outcome = runner.run_grid(
            workloads, PAPER_FORMATS, partition_sizes=PARTITION_SIZES
        )
        cube.update(outcome.by_coords())
        manifest = outcome.write_manifest(
            f"{args.prefix}.{group_name}.manifest.jsonl",
            extra={"group": group_name, "source": "paper_figures"},
        )
        print(
            f"swept {group_name}: {len(outcome)} cells, "
            f"{outcome.stats.total_hits} cache hits -> {manifest}"
        )
    print()

    def series(group: str, metric: str, p: int = 16):
        workloads = groups[group]
        return {
            fmt: [
                getattr(cube[(load.name, fmt, p)], metric)
                for load in workloads
            ]
            for fmt in PAPER_FORMATS
        }

    random_x = [load.parameter for load in groups["random"]]
    band_x = [int(load.parameter) for load in groups["band"]]

    print(grouped_series(random_x, series("random", "sigma"),
                         title="== Figure 5: sigma vs density =="))
    print()
    print(grouped_series(band_x, series("band", "sigma"),
                         title="== Figure 6: sigma vs band width =="))
    print()

    print("== Figure 7: mean sigma vs partition size ==")
    for group_name in groups:
        means = {
            fmt: [
                sum(
                    cube[(load.name, fmt, p)].sigma
                    for load in groups[group_name]
                )
                / len(groups[group_name])
                for p in PARTITION_SIZES
            ]
            for fmt in PAPER_FORMATS
        }
        print(grouped_series(PARTITION_SIZES, means, title=group_name))
        print()

    print(grouped_series(
        random_x, series("random", "bandwidth_utilization"),
        title="== Figure 10: bandwidth utilization vs density ==",
    ))
    print()
    print(grouped_series(
        band_x, series("band", "bandwidth_utilization"),
        title="== Figure 11: bandwidth utilization vs band width ==",
    ))
    print()

    print("== Figure 14: overall scores per group ==")
    for group_name, workloads in groups.items():
        group_results = [
            cube[(load.name, fmt, p)]
            for load in workloads
            for fmt in PAPER_FORMATS
            for p in PARTITION_SIZES
        ]
        scores = summarize(group_results, PAPER_FORMATS)
        print(bar_chart(
            {s.format_name: s.overall for s in scores},
            title=group_name,
        ))
        print()


if __name__ == "__main__":
    main()
