"""Property-based tests (hypothesis) for the core invariants.

Strategies generate arbitrary small sparse matrices; the properties
cover the format round-trips, SpMV agreement, partition reassembly,
profile consistency, and byte-accounting invariants that the whole
characterization rests on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import ALL_FORMATS, get_format
from repro.hardware import HardwareConfig, get_decompressor
from repro.hardware.decompressors import MODELED_FORMATS
from repro.matrix import SparseMatrix
from repro.partition import (
    PartitionProfile,
    partition_matrix,
    profile_partitions,
    reassemble,
)


@st.composite
def sparse_matrices(
    draw,
    max_rows: int = 20,
    max_cols: int = 20,
    max_entries: int = 40,
) -> SparseMatrix:
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    n_entries = draw(st.integers(0, max_entries))
    rows = draw(
        st.lists(
            st.integers(0, n_rows - 1),
            min_size=n_entries, max_size=n_entries,
        )
    )
    cols = draw(
        st.lists(
            st.integers(0, n_cols - 1),
            min_size=n_entries, max_size=n_entries,
        )
    )
    values = draw(
        st.lists(
            st.floats(
                min_value=-100.0, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=n_entries, max_size=n_entries,
        )
    )
    return SparseMatrix((n_rows, n_cols), rows, cols, values)


@st.composite
def vectors_for(draw, n_cols: int) -> np.ndarray:
    values = draw(
        st.lists(
            st.floats(
                min_value=-10.0, max_value=10.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=n_cols, max_size=n_cols,
        )
    )
    return np.array(values)


class TestMatrixProperties:
    @given(sparse_matrices())
    @settings(max_examples=60)
    def test_dense_roundtrip(self, matrix):
        assert SparseMatrix.from_dense(matrix.to_dense()) == matrix

    @given(sparse_matrices())
    @settings(max_examples=60)
    def test_transpose_involution(self, matrix):
        assert matrix.transpose().transpose() == matrix

    @given(sparse_matrices())
    @settings(max_examples=60)
    def test_nnz_counts_consistent(self, matrix):
        assert matrix.row_nnz().sum() == matrix.nnz
        assert matrix.col_nnz().sum() == matrix.nnz
        assert matrix.nnz_rows() <= min(matrix.nnz, matrix.n_rows)

    @given(sparse_matrices(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_spmv_matches_dense(self, matrix, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, size=matrix.n_cols)
        assert np.allclose(matrix.spmv(x), matrix.to_dense() @ x)


class TestFormatProperties:
    @given(sparse_matrices(), st.sampled_from(sorted(ALL_FORMATS)))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_lossless(self, matrix, format_name):
        fmt = get_format(format_name)
        assert fmt.roundtrip(matrix) == matrix

    @given(
        sparse_matrices(max_rows=12, max_cols=12, max_entries=25),
        st.sampled_from(sorted(ALL_FORMATS)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_spmv_matches_reference(self, matrix, format_name, seed):
        fmt = get_format(format_name)
        x = np.random.default_rng(seed).uniform(-1, 1, size=matrix.n_cols)
        encoded = fmt.encode(matrix)
        assert np.allclose(fmt.spmv(encoded, x), matrix.spmv(x), atol=1e-9)

    @given(sparse_matrices(), st.sampled_from(sorted(ALL_FORMATS)))
    @settings(max_examples=80, deadline=None)
    def test_size_invariants(self, matrix, format_name):
        fmt = get_format(format_name)
        size = fmt.size(fmt.encode(matrix))
        assert size.useful_bytes == matrix.nnz * 4
        assert size.data_bytes >= size.useful_bytes
        assert size.metadata_bytes >= 0
        assert 0.0 <= size.bandwidth_utilization <= 1.0


@st.composite
def edge_case_matrices(draw) -> SparseMatrix:
    """Degenerate structures the uniform strategy rarely produces.

    Covers the shapes that historically break format codecs: rows and
    columns that are entirely empty, a lone nonzero in an extreme
    corner, heavily rectangular shapes, and matrices whose nonzeros
    all cluster in one tile so that almost every partition is empty.
    """
    kind = draw(
        st.sampled_from(
            ["empty-bands", "single-element", "rectangular", "clustered"]
        )
    )
    if kind == "empty-bands":
        # interleave populated and guaranteed-empty rows/columns.
        n = draw(st.integers(4, 24))
        stride = draw(st.integers(2, 4))
        live = [i for i in range(n) if i % stride == 0]
        entries = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(live),
                    st.sampled_from(live),
                    st.floats(
                        min_value=-50.0, max_value=50.0,
                        allow_nan=False, allow_infinity=False,
                    ),
                ),
                max_size=20,
            )
        )
        rows = [r for r, _, _ in entries]
        cols = [c for _, c, _ in entries]
        values = [v for _, _, v in entries]
        return SparseMatrix((n, n), rows, cols, values)
    if kind == "single-element":
        n_rows = draw(st.integers(1, 40))
        n_cols = draw(st.integers(1, 40))
        r = draw(st.sampled_from([0, n_rows - 1]))
        c = draw(st.sampled_from([0, n_cols - 1]))
        value = draw(
            st.floats(
                min_value=-50.0, max_value=50.0,
                allow_nan=False, allow_infinity=False,
            ).filter(lambda v: v != 0.0)
        )
        return SparseMatrix((n_rows, n_cols), [r], [c], [value])
    if kind == "rectangular":
        long_side = draw(st.integers(16, 48))
        short_side = draw(st.integers(1, 3))
        tall = draw(st.booleans())
        shape = (
            (long_side, short_side) if tall else (short_side, long_side)
        )
        return draw(
            sparse_matrices(
                max_rows=shape[0], max_cols=shape[1], max_entries=15
            ).map(
                lambda m: SparseMatrix(shape, m.rows, m.cols, m.vals)
            )
        )
    # clustered: every nonzero inside one corner tile, so all other
    # partitions are empty after tiling.
    n = draw(st.integers(16, 32))
    tile = draw(st.integers(2, 4))
    corner = draw(st.sampled_from(["tl", "br"]))
    offset = 0 if corner == "tl" else n - tile
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, tile - 1),
                st.integers(0, tile - 1),
                st.floats(
                    min_value=-50.0, max_value=50.0,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            max_size=10,
        )
    )
    rows = [offset + r for r, _, _ in entries]
    cols = [offset + c for _, c, _ in entries]
    values = [v for _, _, v in entries]
    return SparseMatrix((n, n), rows, cols, values)


class TestEdgeCaseFormatProperties:
    """Satellite pass: every registered format must survive the
    degenerate shapes — encode/decode losslessly and agree with the
    dense reference SpMV."""

    @given(edge_case_matrices(), st.sampled_from(sorted(ALL_FORMATS)))
    @settings(max_examples=150, deadline=None)
    def test_encode_decode_roundtrip(self, matrix, format_name):
        fmt = get_format(format_name)
        decoded = fmt.decode(fmt.encode(matrix))
        assert decoded == matrix
        assert np.array_equal(decoded.to_dense(), matrix.to_dense())

    @given(
        edge_case_matrices(),
        st.sampled_from(sorted(ALL_FORMATS)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_spmv_matches_dense_reference(
        self, matrix, format_name, seed
    ):
        fmt = get_format(format_name)
        x = np.random.default_rng(seed).uniform(
            -1, 1, size=matrix.n_cols
        )
        result = fmt.spmv(fmt.encode(matrix), x)
        assert result.shape == (matrix.n_rows,)
        assert np.allclose(result, matrix.to_dense() @ x, atol=1e-9)

    @given(edge_case_matrices(), st.sampled_from([4, 8, 16]))
    @settings(max_examples=100, deadline=None)
    def test_partitioning_survives_edge_cases(self, matrix, p):
        # all-zero tiles are dropped, never crash, and the survivors
        # reassemble into exactly the original matrix.
        parts = partition_matrix(matrix, p)
        assert all(tile.block.nnz > 0 for tile in parts)
        assert reassemble(matrix.shape, parts, p) == matrix


class TestPartitionProperties:
    @given(sparse_matrices(max_rows=30, max_cols=30, max_entries=60),
           st.sampled_from([4, 8, 16]))
    @settings(max_examples=60)
    def test_reassembly_roundtrip(self, matrix, p):
        parts = partition_matrix(matrix, p)
        assert reassemble(matrix.shape, parts, p) == matrix

    @given(sparse_matrices(max_rows=30, max_cols=30, max_entries=60),
           st.sampled_from([4, 8, 16]),
           st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=60)
    def test_profiles_match_reference(self, matrix, p, block_size):
        profiles = profile_partitions(matrix, p, block_size=block_size)
        tiles = partition_matrix(matrix, p)
        assert len(profiles) == len(tiles)
        for profile, tile in zip(profiles, tiles):
            assert profile == PartitionProfile.of_block(
                tile.block, p, block_size=block_size
            )

    @given(sparse_matrices(max_rows=30, max_cols=30, max_entries=60),
           st.sampled_from([4, 8, 16]))
    @settings(max_examples=60)
    def test_profile_internal_invariants(self, matrix, p):
        for profile in profile_partitions(matrix, p):
            assert 1 <= profile.nnz <= p * p
            assert profile.max_col_nnz <= profile.nnz_rows
            assert profile.max_row_nnz <= profile.nnz_cols
            assert profile.nnz_rows <= profile.nnz
            assert profile.n_blocks >= profile.nnz_block_rows
            assert profile.dia_max_len <= p
            assert (
                profile.n_diagonals * profile.dia_max_len
                >= profile.dia_stored_len
            )
            assert profile.n_diagonals <= min(2 * p - 1, profile.nnz)


class TestModelConsistencyProperties:
    """The glue invariant: hardware byte accounting == format bytes."""

    @given(
        sparse_matrices(max_rows=24, max_cols=24, max_entries=50),
        st.sampled_from(sorted(MODELED_FORMATS)),
    )
    @settings(max_examples=80, deadline=None)
    def test_transfer_size_matches_format(self, matrix, format_name):
        p = 8
        config = HardwareConfig(partition_size=p)
        fmt = (
            get_format(format_name, block_size=config.block_size)
            if format_name == "bcsr"
            else get_format(format_name)
        )
        model = get_decompressor(format_name)
        for tile in partition_matrix(matrix, p):
            profile = PartitionProfile.of_block(
                tile.block, p, block_size=config.block_size
            )
            assert model.transfer_size(profile, config) == fmt.size(
                fmt.encode(tile.block)
            )

    @given(
        sparse_matrices(max_rows=24, max_cols=24, max_entries=50),
        st.sampled_from(sorted(MODELED_FORMATS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_compute_cycles_positive_and_dense_bounded(
        self, matrix, format_name
    ):
        p = 8
        config = HardwareConfig(partition_size=p)
        model = get_decompressor(format_name)
        dense_total = p * config.dot_product_cycles()
        for profile in profile_partitions(matrix, p):
            compute = model.compute(profile, config)
            assert compute.total_cycles > 0
            if format_name == "dense":
                assert compute.total_cycles == dense_total
