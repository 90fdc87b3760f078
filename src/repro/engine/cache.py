"""Content-keyed caching of shared sweep work.

A sweep grid re-uses the same expensive intermediates across many
cells: every format at one (workload, partition size) shares the
partition profiles, and every partition size of one (workload, format)
shares the whole-matrix encoding.  The cache keys those intermediates
by the *content* of the matrix (a digest over its triplets), not by
object identity, so two cells built from independently generated but
identical matrices still dedupe.

Hit/miss counters are kept per kind (``"matrix"``, ``"profiles"``,
``"encode"``) so tests and callers can observe exactly how much work
the cache saved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

import numpy as np

from ..matrix import SparseMatrix

__all__ = ["CacheStats", "ContentKeyedCache", "matrix_content_key"]

T = TypeVar("T")


def matrix_content_key(matrix: SparseMatrix) -> str:
    """A short, stable digest of a matrix's exact content.

    Two matrices get the same key iff they have the same shape and the
    same canonical triplet arrays (``SparseMatrix`` keeps triplets in
    sorted, deduplicated form, so the byte streams are canonical too).
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(matrix.shape, dtype=np.int64).tobytes())
    digest.update(matrix.rows.tobytes())
    digest.update(matrix.cols.tobytes())
    digest.update(matrix.vals.tobytes())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Per-kind hit/miss counters; mergeable across workers."""

    hits: dict = field(default_factory=dict)
    misses: dict = field(default_factory=dict)

    def record(self, kind: str, hit: bool) -> None:
        table = self.hits if hit else self.misses
        table[kind] = table.get(kind, 0) + 1

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def hits_for(self, kind: str) -> int:
        return self.hits.get(kind, 0)

    def misses_for(self, kind: str) -> int:
        return self.misses.get(kind, 0)

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Combined counters of two stat records (associative)."""
        merged = CacheStats(dict(self.hits), dict(self.misses))
        for kind, count in other.hits.items():
            merged.hits[kind] = merged.hits.get(kind, 0) + count
        for kind, count in other.misses.items():
            merged.misses[kind] = merged.misses.get(kind, 0) + count
        return merged

    def __repr__(self) -> str:
        kinds = sorted(set(self.hits) | set(self.misses))
        parts = ", ".join(
            f"{kind}={self.hits_for(kind)}/{self.misses_for(kind)}"
            for kind in kinds
        )
        return f"CacheStats(hit/miss per kind: {parts or 'empty'})"


class ContentKeyedCache:
    """An in-memory memo table keyed by content-derived tuples.

    Keys are ``(kind, *components)`` tuples whose first element names
    the kind of intermediate (used for the stats breakdown).  The cache
    lives for the duration of one worker chunk, so it never needs an
    eviction policy.
    """

    def __init__(self) -> None:
        self._store: dict = {}
        self._matrix_keys: dict = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def matrix_key(self, matrix: SparseMatrix) -> str:
        """Content key of ``matrix``, memoized by object identity."""
        memo = self._matrix_keys.get(id(matrix))
        if memo is not None and memo[0] is matrix:
            return memo[1]
        key = matrix_content_key(matrix)
        # hold a reference so id() cannot be recycled under us
        self._matrix_keys[id(matrix)] = (matrix, key)
        return key

    def put(self, key: tuple[Hashable, ...], value: object) -> None:
        """Store a value computed alongside another (no stats change)."""
        self._store[key] = value

    def get_or_create(
        self, key: tuple[Hashable, ...], factory: Callable[[], T]
    ) -> T:
        """Return the cached value for ``key``, creating it on a miss."""
        kind = str(key[0])
        if key in self._store:
            self.stats.record(kind, hit=True)
            return self._store[key]
        self.stats.record(kind, hit=False)
        value = factory()
        self._store[key] = value
        return value
