"""Matrix partitioning.

Copernicus never compresses a large matrix whole: formats such as CSR
would pay per-row metadata even for all-zero rows, so the matrix is
tiled into ``p x p`` partitions, all-zero partitions are dropped, and
each non-zero partition is compressed and streamed independently
(Section 4.1).  ``p`` (8, 16 or 32) is the main hyperparameter.

Two views of the same tiling are provided:

* :func:`partition_matrix` materializes each non-zero tile as a
  :class:`~repro.matrix.SparseMatrix` — exact, used by functional SpMV,
  examples, and round-trip tests.  :meth:`PartitionProfile.of_block`
  profiles one such tile and is the independent reference oracle.
* :class:`ProfileAccumulator` is the one algorithm that computes the
  per-tile statistics the hardware model needs (non-zeros, non-zero
  rows, block and diagonal counts, ...) without building the tiles —
  one sort and a few ``bincount``/scatter passes per batch — into a
  columnar :class:`ProfileTable`.  This is
  what makes 8000 x 8000 workloads tractable and lets the hardware
  model evaluate its closed-form cycle/size formulas over whole
  matrices in one shot.  It folds coordinate batches, so the
  out-of-core ``.mtx`` reader (:func:`repro.io.streaming_profile_tables`)
  and the in-memory :func:`profile_table` — its one-batch case — share
  every line of it.
* :func:`profile_partitions` is the per-object view of the same data:
  a list of :class:`PartitionProfile` records materialized from the
  table.

The module also computes the paper's Figure-3 "density and spatial
locality" statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PartitionError
from .matrix import SparseMatrix

__all__ = [
    "PARTITION_SIZES",
    "Partition",
    "PartitionProfile",
    "PROFILE_COLUMNS",
    "ProfileTable",
    "ProfileAccumulator",
    "PartitionStatistics",
    "partition_matrix",
    "profile_partitions",
    "profile_table",
    "partition_statistics",
    "reassemble",
    "grid_shape",
    "count_partitions",
]

#: Partition sizes evaluated throughout the paper.
PARTITION_SIZES: tuple[int, ...] = (8, 16, 32)


def _check_partition_size(p: int) -> None:
    if p < 1:
        raise PartitionError(f"partition size must be >= 1, got {p}")


def grid_shape(shape: tuple[int, int], p: int) -> tuple[int, int]:
    """Number of partition rows and columns covering ``shape``."""
    _check_partition_size(p)
    return (-(-shape[0] // p), -(-shape[1] // p))


def count_partitions(shape: tuple[int, int], p: int) -> int:
    """Total tile count (zero and non-zero) covering ``shape``."""
    rows, cols = grid_shape(shape, p)
    return rows * cols


@dataclass(frozen=True)
class Partition:
    """One materialized non-zero tile.

    ``block`` always has shape ``(p, p)``; edge tiles are zero-padded so
    the dot-product engine width is uniform, matching the hardware.
    """

    grid_row: int
    grid_col: int
    block: SparseMatrix

    @property
    def nnz(self) -> int:
        return self.block.nnz


@dataclass(frozen=True)
class PartitionProfile:
    """Aggregate statistics of one non-zero tile.

    These are exactly the quantities the per-format latency and size
    models depend on; computing them without materializing tiles keeps
    full-matrix characterization linear in ``nnz``.

    Attributes
    ----------
    p:
        Tile edge length.
    nnz:
        Non-zero entries in the tile.
    nnz_rows / nnz_cols:
        Rows / columns holding at least one non-zero.
    max_row_nnz / max_col_nnz:
        Longest row / column (ELL width; LIL merge depth bound).
    n_blocks:
        Non-zero ``b x b`` blocks (BCSR).
    nnz_block_rows:
        Block-rows holding at least one non-zero block (BCSR).
    block_size:
        ``b`` used for the two block statistics.
    n_diagonals:
        Distinct diagonals holding data (DIA).
    dia_stored_len:
        Sum of the full lengths of every touched diagonal, zeros
        included (the ragged-storage lower bound).
    dia_max_len:
        Length of the longest touched diagonal; DIA's padded 2-D
        layout (Listing 7) transfers ``n_diagonals * dia_max_len``
        value slots.
    row_nnz_hist:
        Optional histogram of row lengths: ``row_nnz_hist[k - 1]`` is
        the number of rows with exactly ``k`` stored entries.  Needed
        only by the ELL-variant models (JDS, ELL+COO); the core
        formats work from the scalar statistics alone.
    """

    p: int
    nnz: int
    nnz_rows: int
    nnz_cols: int
    max_row_nnz: int
    max_col_nnz: int
    n_blocks: int
    nnz_block_rows: int
    block_size: int
    n_diagonals: int
    dia_stored_len: int
    dia_max_len: int
    row_nnz_hist: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.nnz < 1:
            raise PartitionError("a partition profile must hold data")
        if not (0 < self.nnz_rows <= self.p and 0 < self.nnz_cols <= self.p):
            raise PartitionError("non-zero row/col counts out of range")
        if self.row_nnz_hist:
            hist = self.row_nnz_hist
            if sum(hist) != self.nnz_rows:
                raise PartitionError(
                    "row histogram rows disagree with nnz_rows"
                )
            if sum(k * count for k, count in enumerate(hist, 1)) != self.nnz:
                raise PartitionError(
                    "row histogram entries disagree with nnz"
                )

    # ------------------------------------------------------------------
    # Row-histogram-derived statistics (ELL-variant models)
    # ------------------------------------------------------------------
    def _require_hist(self) -> tuple[int, ...]:
        if not self.row_nnz_hist:
            raise PartitionError(
                "this statistic needs row_nnz_hist; build the profile "
                "via profile_partitions() or of_block()"
            )
        return self.row_nnz_hist

    def ell_overflow(self, width: int) -> int:
        """Entries past the first ``width`` of their row (ELL+COO)."""
        if width < 1:
            raise PartitionError(f"width must be >= 1, got {width}")
        hist = self._require_hist()
        return sum(
            count * max(k - width, 0) for k, count in enumerate(hist, 1)
        )

    def jds_diagonal_lengths(self) -> tuple[int, ...]:
        """Rows participating in each jagged diagonal (JDS)."""
        hist = self._require_hist()
        return tuple(
            sum(count for k, count in enumerate(hist, 1) if k > j)
            for j in range(self.max_row_nnz)
        )

    @property
    def density(self) -> float:
        """Fraction of the tile's ``p * p`` entries that are non-zero."""
        return self.nnz / (self.p * self.p)

    @property
    def row_density(self) -> float:
        """Fraction of non-zero entries within the non-zero rows."""
        return self.nnz / (self.nnz_rows * self.p)

    @property
    def nnz_row_fraction(self) -> float:
        """Fraction of the tile's rows that are non-zero."""
        return self.nnz_rows / self.p

    @classmethod
    def of_block(cls, block: SparseMatrix, p: int, block_size: int = 4
                 ) -> "PartitionProfile":
        """Profile a single materialized tile (reference implementation)."""
        row_counts = block.row_nnz()
        col_counts = block.col_nnz()
        brows = block.rows // block_size
        bcols = block.cols // block_size
        blocks = np.unique(brows * p + bcols)
        diagonals = block.diagonals()
        lengths = [p - abs(int(d)) for d in diagonals]
        nonzero_row_counts = row_counts[row_counts > 0]
        hist = np.bincount(nonzero_row_counts, minlength=p + 1)[1:]
        return cls(
            p=p,
            nnz=block.nnz,
            nnz_rows=block.nnz_rows(),
            nnz_cols=block.nnz_cols(),
            max_row_nnz=int(row_counts.max()),
            max_col_nnz=int(col_counts.max()),
            n_blocks=int(blocks.size),
            nnz_block_rows=int(np.unique(brows).size),
            block_size=block_size,
            n_diagonals=int(diagonals.size),
            dia_stored_len=int(sum(lengths)),
            dia_max_len=int(max(lengths)),
            row_nnz_hist=tuple(int(c) for c in hist),
        )


def partition_matrix(matrix: SparseMatrix, p: int) -> list[Partition]:
    """Split ``matrix`` into non-zero ``p x p`` tiles (grid order)."""
    _check_partition_size(p)
    if not matrix.nnz:
        return []
    grid_rows, grid_cols = grid_shape(matrix.shape, p)
    pid = (matrix.rows // p) * grid_cols + (matrix.cols // p)
    order = np.argsort(pid, kind="stable")
    pid_sorted = pid[order]
    boundaries = np.nonzero(np.diff(pid_sorted))[0] + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [pid_sorted.size]])
    partitions = []
    for start, stop in zip(starts, stops):
        tile_id = int(pid_sorted[start])
        grid_row, grid_col = divmod(tile_id, grid_cols)
        idx = order[start:stop]
        block = SparseMatrix(
            (p, p),
            matrix.rows[idx] - grid_row * p,
            matrix.cols[idx] - grid_col * p,
            matrix.vals[idx],
        )
        partitions.append(Partition(grid_row, grid_col, block))
    return partitions


def reassemble(
    shape: tuple[int, int], partitions: list[Partition], p: int
) -> SparseMatrix:
    """Inverse of :func:`partition_matrix` (drops padding overflow)."""
    rows, cols, vals = [], [], []
    for part in partitions:
        block = part.block
        rows.append(block.rows + part.grid_row * p)
        cols.append(block.cols + part.grid_col * p)
        vals.append(block.vals)
    if not rows:
        return SparseMatrix.empty(shape)
    all_rows = np.concatenate(rows)
    all_cols = np.concatenate(cols)
    all_vals = np.concatenate(vals)
    keep = (all_rows < shape[0]) & (all_cols < shape[1])
    return SparseMatrix(shape, all_rows[keep], all_cols[keep], all_vals[keep])


#: 1-D integer columns of a :class:`ProfileTable`, in field order.
PROFILE_COLUMNS: tuple[str, ...] = (
    "nnz",
    "nnz_rows",
    "nnz_cols",
    "max_row_nnz",
    "max_col_nnz",
    "n_blocks",
    "nnz_block_rows",
    "n_diagonals",
    "dia_stored_len",
    "dia_max_len",
)


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Struct-of-arrays view of every non-zero tile's profile.

    Holds the same quantities as a list of :class:`PartitionProfile`
    records, but as ``(n,)`` int64 columns (plus the ``(n, p)``
    row-length histogram), so the per-format latency and size models
    can be evaluated over all tiles with numpy expressions instead of
    one Python call per tile.  ``p`` and ``block_size`` are uniform
    across a table by construction.

    :meth:`profiles` materializes the compatible per-object view
    lazily; batch and object views are exactly equivalent, which the
    differential test suite pins down.
    """

    p: int
    block_size: int
    nnz: np.ndarray
    nnz_rows: np.ndarray
    nnz_cols: np.ndarray
    max_row_nnz: np.ndarray
    max_col_nnz: np.ndarray
    n_blocks: np.ndarray
    nnz_block_rows: np.ndarray
    n_diagonals: np.ndarray
    dia_stored_len: np.ndarray
    dia_max_len: np.ndarray
    row_nnz_hist: np.ndarray

    def __post_init__(self) -> None:
        _check_partition_size(self.p)
        if self.block_size < 1:
            raise PartitionError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        for name in PROFILE_COLUMNS:
            column = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if column.ndim != 1:
                raise PartitionError(f"column {name} must be 1-D")
            object.__setattr__(self, name, column)
        hist = np.ascontiguousarray(self.row_nnz_hist, dtype=np.int64)
        if hist.ndim != 2 or hist.shape != (self.nnz.size, self.p):
            raise PartitionError(
                f"row_nnz_hist must have shape ({self.nnz.size}, {self.p}), "
                f"got {hist.shape}"
            )
        object.__setattr__(self, "row_nnz_hist", hist)
        lengths = {getattr(self, name).size for name in PROFILE_COLUMNS}
        if len(lengths) != 1:
            raise PartitionError(
                f"profile table columns disagree in length: {lengths}"
            )

    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        """Number of non-zero tiles in the table."""
        return self.nnz.size

    def __len__(self) -> int:
        return self.n_tiles

    def columns(self) -> dict[str, np.ndarray]:
        """The 1-D statistic columns by name (histogram excluded)."""
        return {name: getattr(self, name) for name in PROFILE_COLUMNS}

    # ------------------------------------------------------------------
    # Batch statistics used by the hardware models
    # ------------------------------------------------------------------
    def ell_overflow(self, width: int) -> np.ndarray:
        """Per tile: entries past the first ``width`` of their row."""
        if width < 1:
            raise PartitionError(f"width must be >= 1, got {width}")
        if np.any(self.row_nnz_hist.sum(axis=1) != self.nnz_rows):
            # all-zero rows mark profiles recorded without a histogram
            raise PartitionError(
                "this statistic needs row_nnz_hist; build the table "
                "via profile_table() or from fully-profiled tiles"
            )
        weights = np.maximum(np.arange(1, self.p + 1) - width, 0)
        return self.row_nnz_hist @ weights

    @property
    def density(self) -> np.ndarray:
        """Per tile: fraction of the ``p * p`` entries that are non-zero."""
        return self.nnz / float(self.p * self.p)

    @property
    def row_density(self) -> np.ndarray:
        """Per tile: fraction of non-zeros within the non-zero rows."""
        return self.nnz / (self.nnz_rows * self.p)

    @property
    def nnz_row_fraction(self) -> np.ndarray:
        """Per tile: fraction of the tile's rows that are non-zero."""
        return self.nnz_rows / self.p

    # ------------------------------------------------------------------
    # Object-view materialization (compatibility path)
    # ------------------------------------------------------------------
    def __getitem__(self, index: int) -> PartitionProfile:
        """Materialize the profile of one tile."""
        if not -self.n_tiles <= index < self.n_tiles:
            raise IndexError(index)
        return PartitionProfile(
            p=self.p,
            nnz=int(self.nnz[index]),
            nnz_rows=int(self.nnz_rows[index]),
            nnz_cols=int(self.nnz_cols[index]),
            max_row_nnz=int(self.max_row_nnz[index]),
            max_col_nnz=int(self.max_col_nnz[index]),
            n_blocks=int(self.n_blocks[index]),
            nnz_block_rows=int(self.nnz_block_rows[index]),
            block_size=self.block_size,
            n_diagonals=int(self.n_diagonals[index]),
            dia_stored_len=int(self.dia_stored_len[index]),
            dia_max_len=int(self.dia_max_len[index]),
            # an all-zero row marks a profile recorded without a
            # histogram (a real histogram always sums to nnz_rows >= 1)
            row_nnz_hist=(
                tuple(int(c) for c in self.row_nnz_hist[index])
                if self.row_nnz_hist[index].any()
                else ()
            ),
        )

    def __iter__(self):
        return iter(self.profiles())

    def profiles(self) -> list[PartitionProfile]:
        """The per-object view, materialized once and cached."""
        cached = self.__dict__.get("_profiles")
        if cached is None:
            cached = [self[t] for t in range(self.n_tiles)]
            self.__dict__["_profiles"] = cached
        return cached

    # ------------------------------------------------------------------
    @classmethod
    def from_profiles(
        cls, profiles: Sequence["PartitionProfile"]
    ) -> "ProfileTable":
        """Columnar view of already-materialized profiles.

        All profiles must share one partition size and block size; the
        error names the first offending tile so callers streaming
        mixed tilings can point at the culprit.
        """
        profiles = list(profiles)
        if not profiles:
            raise PartitionError(
                "cannot build a profile table from zero profiles; use "
                "profile_table() for possibly-empty matrices"
            )
        p = profiles[0].p
        block_size = profiles[0].block_size
        for index, profile in enumerate(profiles):
            if profile.p != p or profile.block_size != block_size:
                raise PartitionError(
                    f"profile {index} has (p={profile.p}, "
                    f"b={profile.block_size}) but the table is "
                    f"(p={p}, b={block_size})"
                )
        n = len(profiles)
        columns = {
            name: np.fromiter(
                (getattr(profile, name) for profile in profiles),
                dtype=np.int64,
                count=n,
            )
            for name in PROFILE_COLUMNS
        }
        hist = np.zeros((n, p), dtype=np.int64)
        for index, profile in enumerate(profiles):
            # profiles without a histogram keep an all-zero row; the
            # histogram-derived batch statistics reject such tables
            # exactly like the scalar accessors reject the profile.
            row = profile.row_nnz_hist
            hist[index, : len(row)] = row
        table = cls(p=p, block_size=block_size, row_nnz_hist=hist, **columns)
        table.__dict__["_profiles"] = profiles
        return table

    def __repr__(self) -> str:
        return (
            f"ProfileTable(p={self.p}, block_size={self.block_size}, "
            f"n_tiles={self.n_tiles})"
        )


def _sorted_union(keys: np.ndarray, more: np.ndarray) -> np.ndarray:
    """Union of two sorted unique key arrays, linear in ``keys``."""
    at = np.searchsorted(keys, more)
    fresh = (at == keys.size) | (keys[np.minimum(at, keys.size - 1)] != more)
    return np.insert(keys, at[fresh], more[fresh])


class ProfileAccumulator:
    """Construction of a :class:`ProfileTable` from coordinate batches.

    The one tile-profile algorithm of the package.  It consumes
    ``(rows, cols)`` coordinate batches in any order and any grouping —
    the out-of-core reader feeds it one bounded batch at a time,
    :func:`profile_table` feeds it a whole in-memory matrix as a single
    batch — and finalizes into the same table either way.

    Each batch is sorted once, by ``(tile, b x b block)`` key
    (``np.unique(..., return_inverse=True)``): the distinct keys are
    the batch's non-zero blocks, and they number its tiles with dense
    ids ``t``.  Every other statistic is a reduction over per-tile
    *slots* — entry counts per local row (``p`` slots) and column
    (``p``), occupancy flags per diagonal (``2p - 1``) — filled with
    one ``bincount`` or scatter over slot-major keys ``slot * n + t``.
    The running state is the sorted tile ids and block keys plus one
    ``(slots, n_tiles)`` array per slot kind (int32 counts, bool
    occupancy), merged across batches by uniting keys, adding counts
    and or-ing flags; :meth:`finalize` reduces along the slot axis.
    Memory is non-zero tiles × O(p) slots — the same order as the
    table's own ``(n_tiles, p)`` row histogram — plus one key per
    non-zero block; it never grows with repeated passes over the same
    tiles.  Keys are ``grid tile id * ceil(p/b) ** 2 + block``; a
    shape whose keys would not fit ``int64`` is refused at
    construction.

    Precondition: batches must not repeat a coordinate (canonical
    Matrix Market input — what :func:`repro.io.write_matrix_market`
    emits and SuiteSparse distributes).  Duplicate coordinates would
    be *summed* by :class:`SparseMatrix` but double-counted here; a
    tile row or column that so collects more than ``p`` entries is
    refused with :class:`~repro.errors.PartitionError`.  Explicit zero
    values must be filtered out by the caller (pass ``vals`` to
    :meth:`add` to do it here), matching the container's zero-dropping
    canonicalization.
    """

    def __init__(
        self, shape: tuple[int, int], p: int, block_size: int = 4
    ) -> None:
        _check_partition_size(p)
        if block_size < 1:
            raise PartitionError(
                f"block_size must be >= 1, got {block_size}"
            )
        if shape[0] < 0 or shape[1] < 0:
            raise PartitionError(f"negative shape {shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.p = p
        self.block_size = block_size
        self._block_cols = -(-p // block_size)
        if count_partitions(self.shape, p) * self._block_cols**2 > 2**63:
            raise PartitionError(
                f"shape {self.shape} at p={p} has too many tiles to "
                f"key in int64"
            )
        self._grid_cols = grid_shape(self.shape, p)[1]
        # sorted non-zero tile ids and (tile, block) keys seen so far,
        # and the (rows, cols, diagonals) ``(slots, n_tiles)`` arrays
        self._tiles = np.zeros(0, dtype=np.int64)
        self._blocks = np.zeros(0, dtype=np.int64)
        self._slots = (
            np.zeros((p, 0), dtype=np.int32),
            np.zeros((p, 0), dtype=np.int32),
            np.zeros((2 * p - 1, 0), dtype=np.bool_),
        )

    # ------------------------------------------------------------------
    def add(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: "np.ndarray | None" = None,
    ) -> None:
        """Fold one batch of coordinates into the running statistics.

        When ``vals`` is given, entries whose value is exactly zero
        are dropped first — the streaming equivalent of
        :class:`SparseMatrix`'s canonicalization.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise PartitionError(
                "rows and cols must be equal-length 1-D arrays"
            )
        if vals is not None:
            keep = np.asarray(vals) != 0.0
            rows, cols = rows[keep], cols[keep]
        if not rows.size:
            return
        if rows.min() < 0 or rows.max() >= self.shape[0]:
            raise PartitionError("row indices out of bounds")
        if cols.min() < 0 or cols.max() >= self.shape[1]:
            raise PartitionError("column indices out of bounds")

        p, block_size, block_cols = self.p, self.block_size, self._block_cols
        tile_rows, local_rows = np.divmod(rows, p)
        tile_cols, local_cols = np.divmod(cols, p)
        blocks, inverse = np.unique(
            (tile_rows * self._grid_cols + tile_cols) * block_cols**2
            + local_rows // block_size * block_cols
            + local_cols // block_size,
            return_inverse=True,
        )
        del tile_rows, tile_cols
        block_tiles = blocks // block_cols**2
        first = np.ones(blocks.size, dtype=np.bool_)
        np.not_equal(block_tiles[1:], block_tiles[:-1], out=first[1:])
        tiles = block_tiles[first]
        t = (np.cumsum(first) - 1)[inverse]
        n = tiles.size

        row_counts, col_counts = (
            np.bincount(local * n + t, minlength=p * n)
            .astype(np.int32)
            .reshape(p, n)
            for local in (local_rows, local_cols)
        )
        flags = np.zeros((2 * p - 1) * n, dtype=np.bool_)
        flags[(local_cols - local_rows + (p - 1)) * n + t] = True
        self._merge(
            tiles,
            blocks,
            (row_counts, col_counts, flags.reshape(2 * p - 1, n)),
        )

    def _merge(
        self, tiles: np.ndarray, blocks: np.ndarray, slots: tuple
    ) -> None:
        """Fold one batch's block keys and slot arrays into the state."""
        if not self._tiles.size:
            self._tiles, self._blocks, self._slots = tiles, blocks, slots
        else:
            self._blocks = _sorted_union(self._blocks, blocks)
            merged = _sorted_union(self._tiles, tiles)
            if merged.size > self._tiles.size:
                # new tiles: widen every slot array to the merged ids
                keep = np.searchsorted(merged, self._tiles)
                grown = []
                for old in self._slots:
                    wide = np.zeros((old.shape[0], merged.size), old.dtype)
                    wide[:, keep] = old
                    grown.append(wide)
                self._tiles, self._slots = merged, tuple(grown)
            at = np.searchsorted(self._tiles, tiles)
            for state, batch in zip(self._slots, slots):
                state[:, at] += batch  # on bool occupancy, += is "or"
        for axis, counted in zip(("row", "column"), self._slots[:2]):
            most = int(counted.max())
            if most > self.p:
                raise PartitionError(
                    f"a tile {axis} holds {most} entries in p={self.p} "
                    f"cells: the input repeats a coordinate, breaking "
                    f"the unique-coordinate contract"
                )

    # ------------------------------------------------------------------
    def finalize(self) -> ProfileTable:
        """Materialize the table, one row per non-zero tile in grid order."""
        p = self.p
        n = self._tiles.size
        rows, cols, diagonals = self._slots

        # row histogram: one (tile, count) bin per non-empty tile row
        flat = rows.ravel()
        nonempty = np.flatnonzero(flat)
        hist = np.bincount(
            nonempty % n * p + flat[nonempty] - 1, minlength=n * p
        ).reshape(n, p)

        # block keys are sorted, so (tile, block row) keys are too
        block_owner = np.searchsorted(
            self._tiles, self._blocks // self._block_cols**2
        )
        block_rows = self._blocks // self._block_cols
        first = np.ones(block_rows.size, dtype=np.bool_)
        np.not_equal(block_rows[1:], block_rows[:-1], out=first[1:])

        # diagonal d (0 .. 2p-2) has p - |d - (p-1)| cells
        stored = np.zeros(n, dtype=np.int64)
        longest = np.zeros(n, dtype=np.int32)
        for d, touched in enumerate(diagonals):
            cells = touched * np.int32(p - abs(d - (p - 1)))
            stored += cells
            np.maximum(longest, cells, out=longest)

        return ProfileTable(
            p=p,
            block_size=self.block_size,
            nnz=rows.sum(axis=0, dtype=np.int64),
            nnz_rows=np.count_nonzero(rows, axis=0),
            nnz_cols=np.count_nonzero(cols, axis=0),
            max_row_nnz=rows.max(axis=0),
            max_col_nnz=cols.max(axis=0),
            n_blocks=np.bincount(block_owner, minlength=n),
            nnz_block_rows=np.bincount(block_owner[first], minlength=n),
            n_diagonals=np.count_nonzero(diagonals, axis=0),
            dia_stored_len=stored,
            dia_max_len=longest,
            row_nnz_hist=hist,
        )


def profile_table(
    matrix: SparseMatrix, p: int, block_size: int = 4
) -> ProfileTable:
    """Per-tile statistics, columnar, in grid order.

    The one-batch case of :class:`ProfileAccumulator`: a
    :class:`SparseMatrix` is already canonical (unique coordinates,
    no explicit zeros), which is exactly the accumulator's contract.
    """
    accumulator = ProfileAccumulator(matrix.shape, p, block_size=block_size)
    accumulator.add(matrix.rows, matrix.cols)
    return accumulator.finalize()


def profile_partitions(
    matrix: SparseMatrix, p: int, block_size: int = 4
) -> list[PartitionProfile]:
    """Vectorized per-tile profiles for every non-zero tile (grid order).

    The object view of :func:`profile_table`; prefer the table for
    anything that feeds the hardware model's batch kernels.
    """
    return profile_table(matrix, p, block_size=block_size).profiles()


@dataclass(frozen=True)
class PartitionStatistics:
    """The Figure-3 aggregate statistics of one matrix at one tile size.

    All three are averages over the *non-zero* tiles, expressed as
    percentages like the paper's bars.
    """

    p: int
    n_partitions: int
    n_nonzero_partitions: int
    avg_partition_density: float
    avg_row_density: float
    avg_nnz_row_fraction: float

    @property
    def nonzero_partition_fraction(self) -> float:
        """Share of tiles that carry any data (the locality win)."""
        if not self.n_partitions:
            return 0.0
        return self.n_nonzero_partitions / self.n_partitions


def partition_statistics(
    matrix: SparseMatrix, p: int, block_size: int = 4
) -> PartitionStatistics:
    """Compute the Figure-3 statistics for ``matrix`` at tile size ``p``."""
    table = profile_table(matrix, p, block_size=block_size)
    total = count_partitions(matrix.shape, p)
    if not table.n_tiles:
        return PartitionStatistics(p, total, 0, 0.0, 0.0, 0.0)
    return PartitionStatistics(
        p=p,
        n_partitions=total,
        n_nonzero_partitions=table.n_tiles,
        avg_partition_density=float(np.mean(table.density)),
        avg_row_density=float(np.mean(table.row_density)),
        avg_nnz_row_fraction=float(np.mean(table.nnz_row_fraction)),
    )
