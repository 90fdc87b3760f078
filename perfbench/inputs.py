"""Deterministic benchmark inputs, every one derived from the run seed.

The same seed gives identical matrices, ``.mtx`` file bytes and request
bodies in every process; :func:`sweep_inputs_digest` and
:func:`serve_inputs_digest` are the identities the runs print.

Work per run is held constant across seeds: only generator seeds (and,
for serve, the order of requests within each block and the exact size
within each size band) depend on the seed, so throughput and latency
percentiles compare across seeds.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

from common import derive_seed, use_source

use_source()

from repro.engine import WorkloadSpec  # noqa: E402
from repro.engine.cache import matrix_content_key  # noqa: E402
from repro.io import dumps  # noqa: E402

# ----------------------------------------------------------------------
# sweep-large: n=4000 generated members plus one streamed .mtx file
# ----------------------------------------------------------------------
SWEEP_N = 4000
SWEEP_DENSITIES = (0.001, 0.003, 0.006)
SWEEP_BAND_WIDTH = 32
STREAMED_DENSITY = 0.002
SWEEP_PARTITIONS = (8, 16, 32)
STREAMED_NAME = "streamed"


def sweep_members(seed: int) -> "list[WorkloadSpec]":
    """The generated (lazily built) members of one sweep pass."""
    members = [
        WorkloadSpec.random(
            SWEEP_N,
            density,
            seed=derive_seed(seed, f"sweep-random-{density:g}"),
            name=f"rand-{density:g}",
        )
        for density in SWEEP_DENSITIES
    ]
    members.append(
        WorkloadSpec.band(
            SWEEP_N,
            SWEEP_BAND_WIDTH,
            seed=derive_seed(seed, "sweep-band"),
            name=f"band-{SWEEP_BAND_WIDTH}",
        )
    )
    return members


def streamed_text(seed: int) -> str:
    """MatrixMarket text of the streamed member."""
    spec = WorkloadSpec.random(
        SWEEP_N, STREAMED_DENSITY, seed=derive_seed(seed, "sweep-streamed")
    )
    return dumps(spec.build().matrix)


def sweep_inputs_digest(seed: int, text: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for spec in sweep_members(seed):
        digest.update(matrix_content_key(spec.build().matrix).encode())
    digest.update(text.encode("ascii"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# serve: one unique /characterize query per request
# ----------------------------------------------------------------------
#: Requests come in blocks that cover every (kind, size band) once, in
#: a seed-shuffled order, so the size mix is the same for every seed.
SERVE_KINDS = ("random", "band")
SERVE_SIZE_BANDS = 7
SERVE_SIZE_STEP = 128
SERVE_RANDOM_DENSITY = 0.01
SERVE_BAND_WIDTH = 9
SERVE_BLOCK = len(SERVE_KINDS) * SERVE_SIZE_BANDS


def serve_workload(seed: int, index: int) -> dict:
    """The generator recipe of request ``index`` (a ``workload`` field).

    The workload seed ``seed * 1000003 + index`` differs for every
    index of a run, so no two requests share a query digest.
    """
    block, slot = divmod(index, SERVE_BLOCK)
    order = list(range(SERVE_BLOCK))
    Random(derive_seed(seed, f"serve-block-{block}")).shuffle(order)
    size_band, kind_index = divmod(order[slot], len(SERVE_KINDS))
    jitter = Random(derive_seed(seed, f"serve-request-{index}"))
    n = SERVE_SIZE_STEP * (1 + size_band) + jitter.randrange(
        SERVE_SIZE_STEP
    )
    workload_seed = (seed * 1_000_003 + index) % 2**32
    if SERVE_KINDS[kind_index] == "random":
        return {
            "kind": "random",
            "n": n,
            "density": SERVE_RANDOM_DENSITY,
            "seed": workload_seed,
        }
    return {
        "kind": "band",
        "n": n,
        "width": SERVE_BAND_WIDTH,
        "seed": workload_seed,
    }


def _spec(workload: dict) -> WorkloadSpec:
    if workload["kind"] == "random":
        return WorkloadSpec.random(
            workload["n"], workload["density"], seed=workload["seed"]
        )
    return WorkloadSpec.band(
        workload["n"], workload["width"], seed=workload["seed"]
    )


def serve_body(seed: int, index: int, inline_mtx: bool) -> bytes:
    """Request body ``index``: the recipe itself, or its matrix as
    inline ``.mtx`` text (default formats and partitions either way).

    Index -1 is the untimed warm-up request: smaller than every size
    band, so it shares no digest with a timed request.
    """
    if index == -1:
        workload = {"kind": "band", "n": 64, "width": 3, "seed": seed}
    else:
        workload = serve_workload(seed, index)
    if inline_mtx:
        content = dumps(_spec(workload).build().matrix)
        workload = {"kind": "mtx", "content": content}
    return json.dumps({"workload": workload}, sort_keys=True).encode()


def query_of(body: bytes):
    """The normalized query the server builds from ``body``."""
    from repro.serve import protocol

    return protocol.parse_query("characterize", json.loads(body))


def serve_inputs_digest(bodies: "list[bytes]") -> str:
    digest = hashlib.blake2b(digest_size=16)
    for body in bodies:
        digest.update(hashlib.blake2b(body, digest_size=16).digest())
    return digest.hexdigest()
