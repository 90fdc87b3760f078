"""Matrix Market I/O tests."""

from __future__ import annotations

import pytest

from repro.errors import FormatError
from repro.io import dumps, loads, read_matrix_market, write_matrix_market
from repro.matrix import SparseMatrix
from repro.workloads import random_matrix


class TestRoundtrip:
    def test_string_roundtrip(self, corpus_matrix):
        assert loads(dumps(corpus_matrix)) == corpus_matrix

    def test_file_roundtrip(self, tmp_path, corpus_matrix):
        path = tmp_path / "matrix.mtx"
        write_matrix_market(corpus_matrix, path)
        assert read_matrix_market(path) == corpus_matrix

    def test_comment_written(self):
        text = dumps(SparseMatrix.identity(2), comment="hello\nworld")
        assert "% hello" in text
        assert "% world" in text

    def test_values_preserved_exactly(self):
        matrix = SparseMatrix((2, 2), [0, 1], [1, 0], [1e-300, -2.5])
        assert loads(dumps(matrix)) == matrix


class TestParsing:
    def test_general_real(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "3 3 2\n"
            "1 1 5.0\n"
            "3 2 -1.5\n"
        )
        matrix = loads(text)
        assert matrix.shape == (3, 3)
        assert matrix.to_dense()[0, 0] == 5.0
        assert matrix.to_dense()[2, 1] == -1.5

    def test_symmetric_expansion(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 4.0\n"
            "3 3 1.0\n"
        )
        matrix = loads(text)
        dense = matrix.to_dense()
        assert dense[1, 0] == 4.0
        assert dense[0, 1] == 4.0
        assert dense[2, 2] == 1.0
        assert matrix.nnz == 3

    def test_pattern_entries_become_ones(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n"
            "1 2\n"
            "2 1\n"
        )
        matrix = loads(text)
        assert matrix.to_dense()[0, 1] == 1.0
        assert matrix.to_dense()[1, 0] == 1.0

    def test_integer_field(self):
        text = (
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 1\n"
            "1 1 7\n"
        )
        assert loads(text).to_dense()[0, 0] == 7.0

    def test_blank_lines_and_comments_skipped(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "%\n\n"
            "2 2 1\n"
            "\n"
            "% trailing comment\n"
            "2 2 3.0\n"
        )
        assert loads(text).nnz == 1


class TestErrors:
    def test_bad_header(self):
        with pytest.raises(FormatError):
            loads("not a header\n1 1 0\n")

    def test_array_layout_rejected(self):
        with pytest.raises(FormatError):
            loads("%%MatrixMarket matrix array real general\n")

    def test_complex_field_rejected(self):
        with pytest.raises(FormatError):
            loads(
                "%%MatrixMarket matrix coordinate complex general\n"
            )

    def test_skew_symmetric_rejected(self):
        with pytest.raises(FormatError):
            loads(
                "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            )

    def test_missing_size_line(self):
        with pytest.raises(FormatError):
            loads("%%MatrixMarket matrix coordinate real general\n%\n")

    def test_truncated_entries(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 5\n"
            "1 1 1.0\n"
        )
        with pytest.raises(FormatError):
            loads(text)

    def test_malformed_entry(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 1\n"
        )
        with pytest.raises(FormatError):
            loads(text)

    def test_non_numeric_indices(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "one 1 1.0\n"
        )
        with pytest.raises(FormatError, match="bad entry indices"):
            loads(text)

    def test_non_numeric_value(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 1 not-a-number\n"
        )
        with pytest.raises(FormatError, match="bad entry value"):
            loads(text)

    def test_out_of_bounds_entry(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 1.0\n"
        )
        with pytest.raises(FormatError, match="outside the declared"):
            loads(text)

    def test_zero_index_rejected(self):
        # MatrixMarket is one-based; a 0 index is corrupt data
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "0 1 1.0\n"
        )
        with pytest.raises(FormatError, match="outside the declared"):
            loads(text)

    def test_negative_size_line(self):
        with pytest.raises(FormatError, match="negative size"):
            loads(
                "%%MatrixMarket matrix coordinate real general\n"
                "-2 2 1\n"
            )

    def test_excess_entries_rejected(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 1 1.0\n"
            "2 2 2.0\n"
        )
        with pytest.raises(FormatError, match="declares 1 entries"):
            loads(text)

    def test_symmetric_count_is_of_stored_entries(self):
        # the declared count is of *stored* (lower-triangle) entries,
        # not of the post-expansion triplets
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 4.0\n"
            "3 3 1.0\n"
        )
        assert loads(text).nnz == 3


class TestInterop:
    def test_scipy_cross_check_if_available(self, tmp_path):
        scipy_io = pytest.importorskip("scipy.io")
        matrix = random_matrix(20, 0.2, seed=0)
        path = tmp_path / "cross.mtx"
        write_matrix_market(matrix, path)
        via_scipy = scipy_io.mmread(path).toarray()
        assert (via_scipy == matrix.to_dense()).all()


# ----------------------------------------------------------------------
# Streaming reader: out-of-core profiles == materialized profiles
# ----------------------------------------------------------------------
import io as _io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import MatrixMarketStream, streaming_profile_table
from repro.partition import (
    PROFILE_COLUMNS,
    PartitionProfile,
    ProfileAccumulator,
    partition_matrix,
    profile_table,
)


def assert_tables_equal(streamed, exact) -> None:
    assert streamed.p == exact.p
    assert streamed.block_size == exact.block_size
    assert streamed.n_tiles == exact.n_tiles
    for name in PROFILE_COLUMNS:
        assert np.array_equal(
            getattr(streamed, name), getattr(exact, name)
        ), name
    assert np.array_equal(streamed.row_nnz_hist, exact.row_nnz_hist)


@st.composite
def sparse_matrices(draw):
    """Small matrices with unique coordinates and non-zero values."""
    n_rows = draw(st.integers(min_value=1, max_value=40))
    n_cols = draw(st.integers(min_value=1, max_value=40))
    coords = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_rows - 1),
                st.integers(min_value=0, max_value=n_cols - 1),
            ),
            max_size=120,
            unique=True,
        )
    )
    vals = draw(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
            ).filter(lambda v: v != 0.0),
            min_size=len(coords),
            max_size=len(coords),
        )
    )
    if not coords:
        return SparseMatrix.empty((n_rows, n_cols))
    rows, cols = zip(*coords)
    return SparseMatrix((n_rows, n_cols), rows, cols, vals)


class TestStreamingEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(matrix=sparse_matrices(), p=st.sampled_from((4, 8, 16)))
    def test_streamed_profiles_match_materialized(self, matrix, p):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.mtx"
            write_matrix_market(matrix, path)
            streamed = streaming_profile_table(path, p)
            exact = profile_table(read_matrix_market(path), p)
        assert_tables_equal(streamed, exact)

    @settings(max_examples=40, deadline=None)
    @given(
        matrix=sparse_matrices(),
        batch_size=st.integers(min_value=1, max_value=17),
    )
    def test_tiny_batches_change_nothing(self, matrix, batch_size):
        # force many partial batches through the accumulator; the
        # batching boundary must be invisible in the folded profiles
        text = dumps(matrix)
        mm = MatrixMarketStream(
            _io.StringIO(text), batch_size=batch_size
        )
        accumulator = ProfileAccumulator(mm.shape, 8)
        for rows, cols, vals in mm.batches():
            accumulator.add(rows, cols, vals)
        assert_tables_equal(
            accumulator.finalize(), profile_table(loads(text), 8)
        )

    def test_explicit_zeros_dropped_like_sparse_matrix(self, tmp_path):
        # SparseMatrix canonicalizes explicit zeros away; the streaming
        # path must agree tile for tile
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "6 6 4\n"
            "1 1 1.5\n"
            "2 3 0.0\n"
            "5 5 -2.0\n"
            "6 1 0.0\n"
        )
        path = tmp_path / "zeros.mtx"
        path.write_text(text, encoding="ascii")
        streamed = streaming_profile_table(path, 4)
        exact = profile_table(read_matrix_market(path), 4)
        assert streamed.nnz.sum() == 2
        assert_tables_equal(streamed, exact)

    def test_symmetric_file_expands_identically(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "5 5 3\n"
            "2 1 4.0\n"
            "4 3 2.5\n"
            "5 5 1.0\n"
        )
        path = tmp_path / "sym.mtx"
        path.write_text(text, encoding="ascii")
        assert_tables_equal(
            streaming_profile_table(path, 4),
            profile_table(read_matrix_market(path), 4),
        )

    def test_empty_matrix_streams(self, tmp_path):
        path = tmp_path / "empty.mtx"
        write_matrix_market(SparseMatrix.empty((8, 8)), path)
        table = streaming_profile_table(path, 4)
        assert table.n_tiles == 0

    def test_memory_budget_must_be_positive(self, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix_market(SparseMatrix.identity(4), path)
        with pytest.raises(FormatError, match="memory_budget_mb"):
            streaming_profile_table(path, 4, memory_budget_mb=0)

    @pytest.mark.parametrize("p", [4, 8])
    def test_huge_shape_keeps_tiles_apart(self, tmp_path, p):
        # at n = 10**6 the raw grid tile ids pass 2**31, so the tile
        # keys must not wrap int64 or tiles swap their statistics
        n = 10**6
        matrix = SparseMatrix(
            (n, n),
            [0, 5, 500_000, n - 1],
            [0, n - 2, 500_001, 7],
            [1.0, 2.0, 3.0, 4.0],
        )
        path = tmp_path / "huge.mtx"
        write_matrix_market(matrix, path)
        reference = [
            PartitionProfile.of_block(tile.block, p)
            for tile in partition_matrix(matrix, p)
        ]
        assert profile_table(matrix, p).profiles() == reference
        assert streaming_profile_table(path, p).profiles() == reference

    def test_shape_known_before_entries(self):
        stream = _io.StringIO(dumps(SparseMatrix.identity(3)))
        mm = MatrixMarketStream(stream)
        assert mm.shape == (3, 3)
        assert mm.n_entries == 3
