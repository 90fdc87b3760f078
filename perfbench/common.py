"""Shared helpers: checkout layout, statistics, the result envelope.

Everything here is stdlib only, so ``run.py`` can refuse to run (exit
non-zero, no result line) in a directory that holds the benchmark but
not the program it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated input files, inside the checkout.
WORK = ROOT / "perfbench" / ".work"


def source_present() -> bool:
    """True when the checkout carries the ``repro`` package sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for spawned processes that import ``repro``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    )
    return env


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit generator seed for one named input of one run seed.

    Hash-derived (not ``hash()``), so it is identical in every process
    and on every machine.
    """
    digest = hashlib.blake2b(
        f"{seed}:{label}".encode("utf-8"), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


def quantile(values: "list[float]", q: float) -> float:
    """Nearest-rank quantile, ``0 < q <= 1``, of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def block_quantile(blocks: "list[list[float]]", q: float) -> float:
    """Median over blocks of each block's nearest-rank ``q`` quantile.

    Every block holds the same mix of work, so each block's quantile
    estimates the same figure; the median over blocks ignores blocks
    that a burst of outside load slowed, where a quantile of all the
    values pooled would shift with the share of slowed blocks.
    """
    return median([quantile(block, q) for block in blocks])


def median(values: "list[float]") -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def machine() -> dict:
    """The hardware and toolchain a run was measured on."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": model or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict
) -> str:
    """The final stdout line every run prints."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def report(label: str, value: object) -> None:
    """One human-readable ``label: value`` line before the result."""
    print(f"{label}: {value}", flush=True)
