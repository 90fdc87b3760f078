"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-large --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 when the outputs checked out, 1
when they did not, and 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("sweep-large", "serve-recipe", "serve-mtx")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not common.source_present():
        print(
            f"error: no repro sources under {common.SRC}; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        return 2

    common.use_source()
    common.report("machine", common.machine())
    if args.workload == "sweep-large":
        import sweep_workload

        outcome = sweep_workload.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serve_workload

        outcome = serve_workload.run(
            args.seed,
            args.seconds,
            bool(args.trace),
            inline_mtx=args.workload == "serve-mtx",
        )
    correct, attempted, failed, metrics = outcome
    print(common.result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
