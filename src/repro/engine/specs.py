"""Lazy workload specifications for cheap cross-process dispatch.

A :class:`WorkloadSpec` names a workload by its generator and
parameters instead of carrying the materialized matrix.  Cells built
from specs pickle in a few hundred bytes, and the worker materializes
the matrix through its content-keyed cache — so a spec shared by many
cells is generated once per worker, observable as ``"matrix"`` cache
hits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable

from ..errors import WorkloadError
from ..workloads.band import band_matrix
from ..workloads.pde import poisson_2d
from ..workloads.random_matrices import random_matrix
from ..workloads.registry import Workload
from ..workloads.suitesparse import standin_by_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..partition import ProfileTable

__all__ = ["WorkloadSpec", "StreamedMatrixSpec"]


def _mtx_matrix(content: str):
    """Parse inline MatrixMarket text (the untrusted-workload kind).

    Serve queries may carry a literal ``.mtx`` body instead of a
    generator recipe; the serve layer proves the content survives
    parse/profile inside the :mod:`repro.guard.sandbox` resource
    boundary *before* any spec built from it reaches a worker.
    """
    from ..io import loads

    return loads(content)


_BUILDERS = {
    "random": random_matrix,
    "band": band_matrix,
    "poisson": poisson_2d,
    "standin": standin_by_id,
    "mtx": _mtx_matrix,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, picklable recipe for one workload matrix."""

    kind: str
    name: str
    params: tuple[tuple[str, Hashable], ...]
    group: str = ""
    parameter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _BUILDERS:
            raise WorkloadError(
                f"unknown workload spec kind {self.kind!r}; "
                f"known: {', '.join(sorted(_BUILDERS))}"
            )

    # ------------------------------------------------------------------
    # Constructors for the three generator families
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls, n: int, density: float, seed: int = 0, name: str = ""
    ) -> "WorkloadSpec":
        return cls(
            kind="random",
            name=name or f"rand-{density:g}",
            params=(("n", n), ("density", density), ("seed", seed)),
            group="random",
            parameter=density,
        )

    @classmethod
    def band(
        cls, n: int, width: int, seed: int = 0, name: str = ""
    ) -> "WorkloadSpec":
        return cls(
            kind="band",
            name=name or f"band-{width}",
            params=(("n", n), ("width", width), ("seed", seed)),
            group="band",
            parameter=float(width),
        )

    @classmethod
    def poisson(cls, grid: int, name: str = "") -> "WorkloadSpec":
        return cls(
            kind="poisson",
            name=name or f"poisson-{grid}",
            params=(("grid", grid),),
            group="pde",
        )

    @classmethod
    def mtx(cls, content: str, name: str = "") -> "WorkloadSpec":
        """An inline (untrusted) MatrixMarket workload."""
        if not content:
            raise WorkloadError("mtx workload content must be non-empty")
        digest = hashlib.blake2b(
            content.encode("utf-8", "surrogateescape"), digest_size=8
        ).hexdigest()
        return cls(
            kind="mtx",
            name=name or f"mtx-{digest}",
            params=(("content", content),),
            group="untrusted",
        )

    @classmethod
    def standin(
        cls, table1_id: str, max_dim: int = 2048, seed: int = 0
    ) -> "WorkloadSpec":
        return cls(
            kind="standin",
            name=table1_id,
            params=(
                ("matrix_id", table1_id),
                ("max_dim", max_dim),
                ("seed", seed),
            ),
            group="suitesparse",
        )

    # ------------------------------------------------------------------
    @property
    def cache_key(self) -> tuple:
        return ("matrix", self.kind, self.name, self.params)

    @property
    def recipe_digest(self) -> str:
        """Stable content digest of the generator recipe.

        Computed from the spec parameters alone (no matrix
        materialization); used by run manifests to identify workloads
        across runs and machines.
        """
        payload = repr(("spec", self.kind, self.name, self.params))
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=16
        ).hexdigest()

    def build(self) -> Workload:
        """Materialize the workload (called through the cache)."""
        matrix = _BUILDERS[self.kind](**dict(self.params))
        return Workload(
            name=self.name,
            group=self.group or self.kind,
            matrix=matrix,
            parameter=self.parameter,
        )


@dataclass(frozen=True)
class StreamedMatrixSpec:
    """An out-of-core workload: a ``.mtx`` file profiled tile-by-tile.

    Unlike :class:`WorkloadSpec`, this spec never materializes a
    :class:`~repro.matrix.SparseMatrix`: the sweep profiles the file
    through :func:`repro.io.streaming_profile_tables`, which reads
    bounded batches of entries once and folds them into the per-tile
    statistics the hardware model needs
    (:class:`~repro.partition.ProfileAccumulator`) at every partition
    size a sweep chunk asks for.  Peak memory is the batch buffer
    (bounded by ``memory_budget_mb``) plus each accumulator's per-tile
    state — non-zero tiles × O(p) slots, the same order as the
    resulting table's own ``(n_tiles, p)`` row histogram, and one key
    per non-zero ``b x b`` block — not ``nnz`` and not the
    Python-object overhead of a full triplet parse.

    The recipe digest is a content digest of the *file bytes*, so two
    machines pointing at identical files claim, checkpoint and dedupe
    the same cells.  Paths that inherently require a materialized
    matrix (``encode=True``, ``corrupt`` faults) reject streamed cells
    with :class:`~repro.errors.SweepConfigError` instead of silently
    densifying.
    """

    path: str
    name: str
    group: str = "streamed"
    parameter: float = 0.0
    #: Bounds the streaming reader's in-flight entry batches (MiB).
    memory_budget_mb: float = 64.0

    def __post_init__(self) -> None:
        if self.memory_budget_mb <= 0:
            raise WorkloadError(
                f"memory_budget_mb must be > 0, got "
                f"{self.memory_budget_mb}"
            )

    @classmethod
    def of_file(
        cls,
        path: "str | Path",
        name: str = "",
        memory_budget_mb: float = 64.0,
    ) -> "StreamedMatrixSpec":
        path = Path(path)
        return cls(
            path=str(path),
            name=name or path.stem,
            memory_budget_mb=memory_budget_mb,
        )

    @cached_property
    def content_key(self) -> str:
        """Content digest of the file bytes (computed once, streamed)."""
        digest = hashlib.blake2b(digest_size=16)
        with open(self.path, "rb") as stream:
            for block in iter(lambda: stream.read(1 << 20), b""):
                digest.update(block)
        return digest.hexdigest()

    @property
    def recipe_digest(self) -> str:
        """Stable digest of the recipe: the file's exact content."""
        payload = repr(("streamed", self.content_key))
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=16
        ).hexdigest()

    def profiles(
        self, partition_sizes: "Iterable[int]", block_size: int = 4
    ) -> "dict[int, ProfileTable]":
        """Stream the file once into one :class:`ProfileTable` per size."""
        from ..io import streaming_profile_tables

        return streaming_profile_tables(
            self.path,
            partition_sizes,
            block_size=block_size,
            memory_budget_mb=self.memory_budget_mb,
        )
