"""Unit tests for the SSS symmetric skyline format (paper eq. 2, Alg. 2/3)."""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSRMatrix, SSSMatrix
from repro.formats.validate import (
    BoundsError,
    DTypeError,
    PartitionError,
)


def test_from_coo_matches_dense(sym_dense_small):
    sss = SSSMatrix.from_dense(sym_dense_small)
    assert np.array_equal(sss.to_dense(), sym_dense_small)


def test_rejects_unsymmetric():
    coo = COOMatrix((2, 2), [0], [1], [1.0])
    with pytest.raises(ValueError):
        SSSMatrix.from_coo(coo)


def test_rejects_rectangular():
    coo = COOMatrix((2, 3), [0], [1], [1.0])
    with pytest.raises(ValueError):
        SSSMatrix.from_coo(coo)


def test_spmv_matches_dense(sym_dense_medium, rng):
    sss = SSSMatrix.from_dense(sym_dense_medium)
    x = rng.standard_normal(sss.n_cols)
    assert np.allclose(sss.spmv(x), sym_dense_medium @ x)


def test_size_bytes_equation_2(sym_dense_small):
    """S_SSS = 6*(NNZ + N) + 4 when the diagonal is full."""
    sss = SSSMatrix.from_dense(sym_dense_small)
    n = sss.n_rows
    nnz = sss.nnz  # expanded count; diagonal is full in the fixture
    assert np.all(sss.dvalues != 0)
    assert sss.size_bytes() == 6 * (nnz + n) + 4


def test_size_roughly_half_of_csr(sym_coo_medium):
    csr = CSRMatrix.from_coo(sym_coo_medium)
    sss = SSSMatrix.from_coo(sym_coo_medium)
    ratio = sss.size_bytes() / csr.size_bytes()
    assert 0.4 < ratio < 0.65  # "almost reducing to the half"


def test_nnz_counts_expanded(sym_dense_small):
    sss = SSSMatrix.from_dense(sym_dense_small)
    assert sss.nnz == np.count_nonzero(sym_dense_small)
    assert sss.stored_entries == sss.n_rows + sss.nnz_lower


def test_missing_diagonal_entries():
    dense = np.array(
        [[0.0, 2.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 0.0]]
    )
    sss = SSSMatrix.from_dense(dense)
    assert sss.dvalues[0] == 0.0 and sss.dvalues[2] == 0.0
    x = np.array([1.0, -1.0, 2.0])
    assert np.allclose(sss.spmv(x), dense @ x)


def test_strictly_lower_enforced():
    with pytest.raises(ValueError):
        SSSMatrix(
            (2, 2),
            dvalues=np.ones(2),
            rowptr=np.array([0, 1, 1], dtype=np.int32),
            colind=np.array([1], dtype=np.int32),  # upper entry in row 0
            values=np.array([1.0]),
        )


def _one_entry_sss(colind, rowptr=(0, 0, 1, 1)):
    return SSSMatrix((3, 3), np.ones(3), rowptr, colind, [5.0])


@pytest.mark.parametrize(
    "colind",
    [
        [-1],  # would read x[-1] and write y[-1] in the compiled kernel
        [3],  # past the last column
        np.array([2**32], dtype=np.int64),  # narrowed to int32: 0
        np.array([2**32], dtype=np.uint64),
    ],
)
def test_out_of_range_column_rejected_not_wrapped(colind):
    with pytest.raises(BoundsError):
        _one_entry_sss(colind)


@pytest.mark.parametrize("colind", [[0.7], [0.0], [False]])
def test_non_integer_column_rejected(colind):
    with pytest.raises(DTypeError):
        _one_entry_sss(colind)


def test_wide_rowptr_rejected_not_wrapped():
    # 2**32 + 1 narrowed to int32 is 1: a valid-looking row pointer.
    with pytest.raises(BoundsError):
        _one_entry_sss([0], rowptr=np.array([0, 0, 2**32 + 1, 1]))
    with pytest.raises(DTypeError):
        _one_entry_sss([0], rowptr=[0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint64])
def test_any_integer_index_dtype_accepted(dtype):
    sss = _one_entry_sss(
        np.array([0], dtype=dtype), rowptr=np.array([0, 0, 1, 1], dtype=dtype)
    )
    assert sss.rowptr.dtype == np.int32 and sss.colind.dtype == np.int32
    assert np.array_equal(sss.spmv(np.array([1.0, 2.0, 3.0])), [11, 7, 3])


def test_empty_lower_triangle_of_any_dtype_accepted():
    sss = SSSMatrix((2, 2), [1.0, 2.0], [0, 0, 0], np.zeros(0), [])
    assert sss.colind.dtype == np.int32
    assert np.array_equal(sss.spmv(np.ones(2)), [1.0, 2.0])


@pytest.mark.parametrize("bounds", [(-1, 2), (2, 1), (0, 4)])
def test_partition_kernel_rejects_bad_row_range(bounds):
    sss = _one_entry_sss([0])
    y = np.zeros(3)
    with pytest.raises(PartitionError):
        sss.spmv_partition(np.ones(3), y, y.copy(), *bounds)


def test_partition_kernel_covers_matrix(sym_dense_medium, rng):
    sss = SSSMatrix.from_dense(sym_dense_medium)
    x = rng.standard_normal(sss.n_cols)
    parts = [(0, 75), (75, 140), (140, 280), (280, 300)]
    y = np.zeros(sss.n_rows)
    for s, e in parts:
        local = np.zeros(sss.n_rows)
        sss.spmv_partition(x, y, local, s, e)
        y += local
    assert np.allclose(y, sym_dense_medium @ x)


def test_partition_local_writes_only_before_start(sym_dense_medium, rng):
    sss = SSSMatrix.from_dense(sym_dense_medium)
    x = rng.standard_normal(sss.n_cols)
    direct = np.zeros(sss.n_rows)
    local = np.zeros(sss.n_rows)
    sss.spmv_partition(x, direct, local, 100, 200)
    assert np.all(local[100:] == 0.0)
    # Direct writes stay inside the partition.
    assert np.all(direct[:100] == 0.0)
    assert np.all(direct[200:] == 0.0)


def test_partition_conflict_rows(sym_dense_medium):
    sss = SSSMatrix.from_dense(sym_dense_medium)
    conflicts = sss.partition_conflict_rows(100, 200)
    lo, hi = sss.rowptr[100], sss.rowptr[200]
    expected = np.unique(
        sss.colind[lo:hi][sss.colind[lo:hi] < 100]
    )
    assert np.array_equal(conflicts, expected)
    assert np.all(conflicts < 100)


def test_conflict_rows_match_local_nonzeros(sym_dense_medium, rng):
    """The index enumerates exactly the local vector's non-zeros."""
    sss = SSSMatrix.from_dense(sym_dense_medium)
    x = rng.uniform(1.0, 2.0, sss.n_cols)  # positive: no cancellation
    direct = np.zeros(sss.n_rows)
    local = np.zeros(sss.n_rows)
    sss.spmv_partition(x, direct, local, 150, 300)
    written = np.flatnonzero(local)
    assert np.array_equal(written, sss.partition_conflict_rows(150, 300))


def test_expanded_row_nnz(sym_dense_small):
    sss = SSSMatrix.from_dense(sym_dense_small)
    expected = (sym_dense_small != 0).sum(axis=1)
    assert np.array_equal(sss.expanded_row_nnz(), expected)


def test_to_coo_roundtrip(sym_coo_medium):
    sss = SSSMatrix.from_coo(sym_coo_medium)
    assert np.array_equal(
        sss.to_coo().to_dense(), sym_coo_medium.to_dense()
    )


def test_spmv_against_scipy(sym_coo_medium, rng):
    sss = SSSMatrix.from_coo(sym_coo_medium)
    sp = sym_coo_medium.to_scipy()
    x = rng.standard_normal(sss.n_cols)
    assert np.allclose(sss.spmv(x), sp @ x)


def test_skip_symmetry_check_allows_fast_path(sym_coo_small):
    sss = SSSMatrix.from_coo(sym_coo_small, check_symmetry=False)
    assert sss.nnz == sym_coo_small.nnz


def test_partition_kernel_matches_uncached_call(sym_dense_medium, rng):
    sss = SSSMatrix.from_dense(sym_dense_medium)
    x = rng.standard_normal(sss.n_cols)
    direct, local = np.zeros(sss.n_rows), np.zeros(sss.n_rows)
    sss.partition_kernel(100, 200)(x, direct, local)
    ref_direct, ref_local = np.zeros(sss.n_rows), np.zeros(sss.n_rows)
    sss.spmv_partition(x, ref_direct, ref_local, 100, 200)
    assert np.array_equal(direct, ref_direct)
    assert np.array_equal(local, ref_local)


def test_split_of_another_row_range_rejected(sym_dense_medium, rng):
    from repro.formats.sss import _PartitionSplit

    sss = SSSMatrix.from_dense(sym_dense_medium)
    y = np.zeros(sss.n_rows)
    with pytest.raises(PartitionError):
        sss.spmv_partition(
            rng.standard_normal(sss.n_cols), y, y.copy(), 100, 200,
            _PartitionSplit(sss, 0, 100),
        )
