"""Matrix Market (.mtx) input/output.

SuiteSparse distributes its collection in the Matrix Market exchange
format; this reader/writer lets the characterization run on real
downloaded matrices when they are available, while the bundled
synthetic stand-ins keep everything runnable offline.

Supported: ``coordinate`` real/integer/pattern matrices with
``general`` or ``symmetric`` symmetry — the variants the Table 1
matrices actually use.

Two reading modes share one parser/validator:

* :func:`read_matrix_market` materializes the whole file into a
  :class:`SparseMatrix` (exact, the historical path).
* :class:`MatrixMarketStream` + :func:`streaming_profile_table` read
  the same files **out of core**: entries are parsed in bounded
  batches and folded straight into a
  :class:`~repro.partition.ProfileAccumulator` — the same algorithm
  :func:`~repro.partition.profile_table` runs on an in-memory matrix
  as one batch — so a matrix far larger than memory still produces
  the exact per-tile :class:`~repro.partition.ProfileTable` the
  hardware model needs, without ever holding the triplets (let alone
  anything dense).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import FormatError, ValidationError
from .matrix import SparseMatrix

__all__ = [
    "MAX_DIM",
    "read_matrix_market",
    "write_matrix_market",
    "loads",
    "dumps",
    "MatrixMarketStream",
    "streaming_profile_table",
]

_HEADER_PREFIX = "%%MatrixMarket"

#: Largest declared dimension the reader accepts.  Indices below this
#: bound always fit ``int64`` (and tile keys ``row * n_cols + col``
#: stay under ``2**62``), so a size line that passes this check can
#: never overflow the numpy conversion downstream — a hostile file
#: that lies its shape up to 2**70 is refused at the size line, before
#: a single entry is parsed.
MAX_DIM = 2**31 - 1

#: One streamed batch: (rows, cols, vals) numpy arrays.
_Batch = tuple[np.ndarray, np.ndarray, np.ndarray]


def _parse_header(line: str) -> tuple[str, str]:
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != _HEADER_PREFIX:
        raise FormatError(f"not a MatrixMarket header: {line.strip()!r}")
    _, obj, layout, field_kind, symmetry = (p.lower() for p in parts)
    if obj != "matrix":
        raise FormatError(f"unsupported object {obj!r}")
    if layout != "coordinate":
        raise FormatError(
            f"only coordinate layout is supported, got {layout!r}"
        )
    if field_kind not in ("real", "integer", "pattern"):
        raise FormatError(f"unsupported field {field_kind!r}")
    if symmetry not in ("general", "symmetric"):
        raise FormatError(f"unsupported symmetry {symmetry!r}")
    return field_kind, symmetry


class MatrixMarketStream:
    """Incremental ``.mtx`` reader: header eagerly, entries in batches.

    Parses the banner and size line on construction (so ``shape`` /
    ``n_entries`` are available before any entry is read), then
    :meth:`batches` yields ``(rows, cols, vals)`` numpy arrays of at
    most ``batch_size`` entries each — 0-based, bounds-checked, with
    symmetric off-diagonal entries already mirrored.  Peak memory is
    one batch, not the file.

    Validation is identical to :func:`read_matrix_market` — same
    checks, same error messages — because the materializing reader is
    built on this class.
    """

    def __init__(self, stream: TextIO, batch_size: int = 65536) -> None:
        if batch_size < 1:
            raise FormatError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self._stream = stream
        self.batch_size = batch_size
        header = stream.readline()
        self.field_kind, self.symmetry = _parse_header(header)
        size_line = ""
        for line in stream:
            stripped = line.strip()
            if stripped and not stripped.startswith("%"):
                size_line = stripped
                break
        if not size_line:
            raise FormatError("missing size line")
        try:
            n_rows, n_cols, n_entries = (
                int(x) for x in size_line.split()
            )
        except ValueError:
            raise FormatError(f"bad size line: {size_line!r}") from None
        if n_rows < 0 or n_cols < 0 or n_entries < 0:
            raise FormatError(f"negative size line: {size_line!r}")
        if n_rows > MAX_DIM or n_cols > MAX_DIM:
            raise ValidationError(
                f"declared shape {n_rows} x {n_cols} exceeds the "
                f"supported maximum dimension {MAX_DIM}",
                reason="extent-overflow",
                format_name="mtx",
            )
        if n_entries > n_rows * n_cols:
            raise ValidationError(
                f"size line declares {n_entries} entries for a "
                f"{n_rows} x {n_cols} matrix with only "
                f"{n_rows * n_cols} cells",
                reason="nnz-overflow",
                format_name="mtx",
            )
        self.shape: tuple[int, int] = (n_rows, n_cols)
        #: Entry count the size line declares (pre-symmetry-expansion).
        self.n_entries = n_entries

    def batches(self) -> Iterator[_Batch]:
        """Yield validated entry batches; raises on a corrupt file.

        The declared-vs-seen entry-count check fires after the last
        line, so a truncated file is only detectable once the stream
        is exhausted — callers folding batches into an accumulator
        must treat the whole iteration as the unit of trust.
        """
        n_rows, n_cols = self.shape
        field_kind, symmetry = self.field_kind, self.symmetry
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        n_seen = 0
        for line in self._stream:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            if field_kind == "pattern":
                if len(parts) != 2:
                    raise FormatError(f"bad pattern entry: {stripped!r}")
                value = 1.0
            else:
                if len(parts) != 3:
                    raise FormatError(f"bad entry: {stripped!r}")
                try:
                    value = float(parts[2])
                except ValueError:
                    raise FormatError(
                        f"bad entry value: {stripped!r}"
                    ) from None
            try:
                row, col = int(parts[0]) - 1, int(parts[1]) - 1
            except ValueError:
                raise FormatError(
                    f"bad entry indices: {stripped!r}"
                ) from None
            if not (0 <= row < n_rows and 0 <= col < n_cols):
                raise FormatError(
                    f"entry ({row + 1}, {col + 1}) outside the declared "
                    f"{n_rows} x {n_cols} shape"
                )
            n_seen += 1
            rows.append(row)
            cols.append(col)
            vals.append(value)
            if symmetry == "symmetric" and row != col:
                rows.append(col)
                cols.append(row)
                vals.append(value)
            if len(rows) >= self.batch_size:
                yield (
                    np.asarray(rows, dtype=np.int64),
                    np.asarray(cols, dtype=np.int64),
                    np.asarray(vals, dtype=np.float64),
                )
                rows, cols, vals = [], [], []
        # count raw file entries, not the post-symmetry-expansion
        # triplets
        if n_seen != self.n_entries:
            raise FormatError(
                f"file declares {self.n_entries} entries but provides "
                f"{n_seen} (truncated or corrupt file?)"
            )
        if rows:
            yield (
                np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
                np.asarray(vals, dtype=np.float64),
            )


def _read_stream(stream: TextIO) -> SparseMatrix:
    mm = MatrixMarketStream(stream)
    rows, cols, vals = [], [], []
    for batch_rows, batch_cols, batch_vals in mm.batches():
        rows.append(batch_rows)
        cols.append(batch_cols)
        vals.append(batch_vals)
    if not rows:
        return SparseMatrix.empty(mm.shape)
    return SparseMatrix(
        mm.shape,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def read_matrix_market(path: str | Path) -> SparseMatrix:
    """Read a ``.mtx`` file into a :class:`SparseMatrix`."""
    try:
        with open(path, "r", encoding="ascii") as stream:
            return _read_stream(stream)
    except UnicodeDecodeError as error:
        # binary garbage with an .mtx name is a format problem, not an
        # unhandled codec crash
        raise FormatError(
            f"{path}: not ASCII MatrixMarket text ({error})"
        ) from None


def loads(text: str) -> SparseMatrix:
    """Parse MatrixMarket content from a string."""
    return _read_stream(io.StringIO(text))


#: Rough per-entry cost of one in-flight batch: three Python scalars
#: in list slots before the numpy conversion (~28 B float + 8 B
#: pointer each) plus the converted arrays (24 B).
_BATCH_ENTRY_BYTES = 132


def streaming_profile_table(
    path: str | Path,
    p: int,
    block_size: int = 4,
    memory_budget_mb: float = 64.0,
):
    """Profile a ``.mtx`` file tile-by-tile without materializing it.

    Returns a :class:`~repro.partition.ProfileTable` identical to
    ``profile_table(read_matrix_market(path), p)`` — both fold into a
    :class:`~repro.partition.ProfileAccumulator`, this one batch by
    batch, and the hypothesis round-trip suite pins that batching is
    invisible — while holding only one entry batch (sized from
    ``memory_budget_mb``) plus the accumulator's columnar per-tile
    state.  Entries with explicit zero
    values are dropped exactly like :class:`SparseMatrix` drops them;
    files with *duplicate coordinates* are outside the streaming
    contract (see :class:`~repro.partition.ProfileAccumulator`).
    """
    from .partition import ProfileAccumulator

    if memory_budget_mb <= 0:
        raise FormatError(
            f"memory_budget_mb must be > 0, got {memory_budget_mb}"
        )
    budget_bytes = int(memory_budget_mb * (1 << 20))
    # spend at most a quarter of the budget on the in-flight batch;
    # the rest is headroom for the accumulator's columnar state
    batch_size = max(1024, budget_bytes // (4 * _BATCH_ENTRY_BYTES))
    try:
        with open(path, "r", encoding="ascii") as stream:
            mm = MatrixMarketStream(stream, batch_size=batch_size)
            accumulator = ProfileAccumulator(
                mm.shape, p, block_size=block_size
            )
            for rows, cols, vals in mm.batches():
                accumulator.add(rows, cols, vals)
    except UnicodeDecodeError as error:
        raise FormatError(
            f"{path}: not ASCII MatrixMarket text ({error})"
        ) from None
    return accumulator.finalize()


def _entry_lines(matrix: SparseMatrix) -> Iterator[str]:
    for row, col, value in zip(matrix.rows, matrix.cols, matrix.vals):
        yield f"{int(row) + 1} {int(col) + 1} {float(value)!r}"


def dumps(matrix: SparseMatrix, comment: str = "") -> str:
    """Serialize to MatrixMarket ``coordinate real general`` text."""
    lines = [f"{_HEADER_PREFIX} matrix coordinate real general"]
    if comment:
        for comment_line in comment.splitlines():
            lines.append(f"% {comment_line}")
    lines.append(f"{matrix.n_rows} {matrix.n_cols} {matrix.nnz}")
    lines.extend(_entry_lines(matrix))
    return "\n".join(lines) + "\n"


def write_matrix_market(
    matrix: SparseMatrix, path: str | Path, comment: str = ""
) -> None:
    """Write a ``.mtx`` file (coordinate real general)."""
    Path(path).write_text(dumps(matrix, comment), encoding="ascii")
