"""``sweep-large``: an in-process ``SweepRunner(backend="inline")`` grid.

One pass runs, for each member in turn, the ``PAPER_FORMATS`` x
p in {8, 16, 32} grid of that member: three n=4000 random matrices, an
n=4000 band matrix (all built lazily from ``WorkloadSpec`` recipes) and
one n=4000 ``.mtx`` file profiled out of core through
``StreamedMatrixSpec``.  Encode accounting is off, as in ``repro
sweep``.  ``partition.profile_table`` dominates the time.

The parent process writes the ``.mtx`` file and measures set-up in
fresh processes; a child process runs only the workload, so its
``ru_maxrss`` is the workload's peak memory.  Run the child alone with::

    python3 perfbench/sweep_workload.py --seed 0 --seconds 5 \\
        --trace 0 --mtx streamed.mtx
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import common

#: Fresh processes that only set up (import + runner construction);
#: with the workload child's own set-up, the median of these is setup_s.
SETUP_PROBES = 4
#: Stored pass digests, by seed (see README.md).
EXPECTED = Path(__file__).resolve().parent / "expected.json"


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def cell_record(result) -> tuple:
    """Every simulated statistic of one cell, exactly."""
    pipeline = result.pipeline
    size = result.size
    return (
        result.workload,
        result.format_name,
        result.partition_size,
        repr(result.sigma),
        result.total_cycles,
        result.memory_cycles,
        result.compute_cycles,
        result.decompress_cycles,
        repr(result.balance_ratio),
        size.useful_bytes,
        size.data_bytes,
        size.metadata_bytes,
        result.framed_total_bytes,
        repr(result.dynamic_power_w),
        repr(result.static_power_w),
        repr(result.energy_j),
        pipeline.fill_cycles,
        pipeline.drain_cycles,
    )


def cell_digest(result) -> bytes:
    """Digest of :func:`cell_record` plus the per-partition series."""
    pipeline = result.pipeline
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(cell_record(result)).encode())
    for column in (
        pipeline.memory_per_partition,
        pipeline.compute.decompress_cycles,
        pipeline.compute.dot_cycles,
        pipeline.sizes.useful_bytes,
        pipeline.sizes.data_bytes,
        pipeline.sizes.metadata_bytes,
    ):
        digest.update(column.tobytes())
    return digest.digest()


def load_expected(path: Path = EXPECTED) -> dict:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)["pass_digests"]


def golden_verdict(seed: int, digest: str, expected: dict) -> str:
    """``match``, ``MISMATCH`` or ``unverified`` (no stored digest)."""
    stored = expected.get(str(seed))
    if stored is None:
        return "unverified"
    return "match" if stored == digest else "MISMATCH"


# ----------------------------------------------------------------------
# The child: set-up, timed passes, checks
# ----------------------------------------------------------------------
def child_main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mtx", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    common.use_source()
    start = time.perf_counter()
    from repro.engine import SweepRunner

    runner = SweepRunner(backend="inline")
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import inputs
    from layertrace import Tracer
    from repro.engine import StreamedMatrixSpec
    from repro.formats.registry import PAPER_FORMATS
    from repro.io import read_matrix_market
    from repro.workloads.registry import Workload

    def members() -> list:
        # fresh specs every pass: the streamed member's content key is
        # computed once per spec, as in one `repro sweep` run
        return inputs.sweep_members(args.seed) + [
            StreamedMatrixSpec.of_file(args.mtx, name=inputs.STREAMED_NAME)
        ]

    def grid(member):
        return runner.run_grid([member], PAPER_FORMATS, inputs.SWEEP_PARTITIONS)

    # lazy imports and first-call costs, outside the timed passes
    grid(inputs.sweep_members(args.seed)[0])

    tracer = Tracer()
    pass_cells = (
        len(members()) * len(PAPER_FORMATS) * len(inputs.SWEEP_PARTITIONS)
    )
    passes: list[dict] = []
    timed = 0.0
    cells = failed = 0
    streamed_results = []
    while timed < args.seconds or (args.trace and len(passes) < 2):
        traced = bool(args.trace) and len(passes) % 2 == 1
        digest = hashlib.blake2b(digest_size=16)
        latencies = []
        for member in members():
            if traced:
                with tracer.installed(), tracer.region():
                    begin = time.perf_counter()
                    outcome = grid(member)
                    elapsed = time.perf_counter() - begin
            else:
                begin = time.perf_counter()
                outcome = grid(member)
                elapsed = time.perf_counter() - begin
            latencies.append(elapsed)
            cells += len(outcome.results) + len(outcome.failures)
            failed += len(outcome.failures)
            for result in outcome.results:
                digest.update(cell_digest(result))
            if member.name == inputs.STREAMED_NAME:
                streamed_results = outcome.results
        pass_s = sum(latencies)
        timed += pass_s
        passes.append({
            "seconds": pass_s,
            "cells": pass_cells,
            "latencies": latencies,
            "digest": digest.hexdigest(),
            "traced": traced,
        })

    # the streamed member against the same file read whole: the two
    # profile implementations must give identical cells
    whole = Workload(
        name=inputs.STREAMED_NAME,
        group="streamed",
        matrix=read_matrix_market(args.mtx),
    )
    materialized = grid(whole).results
    streamed_match = [cell_digest(r) for r in streamed_results] == [
        cell_digest(r) for r in materialized
    ]

    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "cells": cells,
        "failed": failed,
        "streamed_match": streamed_match,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "layers": (
            {
                name: list(value)
                for name, value in tracer.metrics(
                    _overhead(passes)
                ).items()
            }
            if args.trace
            else None
        ),
    }))
    return 0


def _overhead(passes: "list[dict]") -> float:
    """Traced time over untraced time, minus one, per cell."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if not traced or not plain:
        return 0.0
    traced_rate = sum(p["seconds"] for p in traced) / sum(
        p["cells"] for p in traced
    )
    plain_rate = sum(p["seconds"] for p in plain) / sum(
        p["cells"] for p in plain
    )
    return traced_rate / plain_rate - 1.0


# ----------------------------------------------------------------------
# The parent: inputs, set-up probes, the child, metrics
# ----------------------------------------------------------------------
def _child(args: "list[str]", timeout: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=common.ROOT,
        env=common.child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"sweep child exited {completed.returncode}:\n"
            f"{completed.stderr[-4000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run(seed: int, seconds: float, trace: bool) -> tuple:
    import inputs

    common.WORK.mkdir(parents=True, exist_ok=True)
    mtx = common.WORK / f"sweep-{seed}-{os.getpid()}.mtx"
    try:
        text = inputs.streamed_text(seed)
        mtx.write_text(text, encoding="ascii")
        common.report("inputs digest", inputs.sweep_inputs_digest(seed, text))
        base = ["--seed", str(seed), "--seconds", str(seconds),
                "--mtx", str(mtx)]
        setups = [
            _child([*base, "--setup-only"], timeout=30)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        out = _child(
            [*base, "--trace", str(int(trace))], timeout=seconds * 2 + 60
        )
    finally:
        mtx.unlink(missing_ok=True)
    setups.append(out["setup_s"])
    passes = out["passes"]
    digests = {p["digest"] for p in passes}
    digest = passes[0]["digest"]
    verdict = golden_verdict(seed, digest, load_expected())
    common.report("pass digest", f"{digest} ({len(passes)} passes)")
    common.report(
        "golden digest",
        verdict
        + ("" if verdict != "unverified"
           else f" (no stored digest for seed {seed})"),
    )
    common.report("streamed == materialized", out["streamed_match"])
    deterministic = len(digests) == 1
    if not deterministic:
        common.report("pass digests differ", sorted(digests))
    correct = (
        deterministic
        and verdict != "MISMATCH"
        and out["streamed_match"]
        and out["failed"] == 0
    )
    failed = out["failed"] if correct else out["cells"]
    if trace:
        layers = {
            name: common.metric(value, unit)
            for name, (value, unit) in out["layers"].items()
        }
        share = layers["partition.profile_table.share"]["value"]
        common.report(
            "partition.profile_table share",
            f"{share:.1%} of traced wall (ROADMAP figure: ~93%)",
        )
        common.report(
            "tracing overhead",
            f"{layers['trace.overhead_frac']['value']:+.1%}",
        )
        return correct, out["cells"], failed, layers
    plain = [p for p in passes if not p["traced"]]
    latencies = [p["latencies"] for p in plain]
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "throughput_per_s": common.metric(
            common.median([p["cells"] / p["seconds"] for p in plain]),
            "1/s",
        ),
        "p50_ms": common.metric(
            common.block_quantile(latencies, 0.5) * 1e3, "ms"
        ),
        "p90_ms": common.metric(
            common.block_quantile(latencies, 0.9) * 1e3, "ms"
        ),
        "peak_rss_mb": common.metric(out["peak_rss_mb"], "MB"),
        "ok_frac": common.metric(
            (out["cells"] - failed) / out["cells"], "fraction"
        ),
    }
    return correct, out["cells"], failed, metrics


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
