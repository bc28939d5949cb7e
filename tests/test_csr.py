"""Unit tests for the CSR baseline format (paper eq. 1)."""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSRMatrix, SSSMatrix
from repro.formats.validate import BoundsError, DTypeError, PartitionError


def test_from_coo_matches_dense(sym_dense_small):
    csr = CSRMatrix.from_dense(sym_dense_small)
    assert np.array_equal(csr.to_dense(), sym_dense_small)


def test_spmv_matches_dense(sym_dense_medium, rng):
    csr = CSRMatrix.from_dense(sym_dense_medium)
    x = rng.standard_normal(csr.n_cols)
    assert np.allclose(csr.spmv(x), sym_dense_medium @ x)


def test_spmv_into_provided_output(sym_dense_small, rng):
    csr = CSRMatrix.from_dense(sym_dense_small)
    x = rng.standard_normal(csr.n_cols)
    y = np.full(csr.n_rows, 99.0)
    out = csr.spmv(x, y)
    assert out is y
    assert np.allclose(y, sym_dense_small @ x)


def test_size_bytes_equation_1(sym_coo_small):
    """S_CSR = 12*NNZ + 4*(N+1)."""
    csr = CSRMatrix.from_coo(sym_coo_small)
    assert csr.size_bytes() == 12 * csr.nnz + 4 * (csr.n_rows + 1)


def test_empty_rows_handled(rng):
    dense = np.zeros((6, 6))
    dense[0, 3] = 2.0
    dense[5, 1] = 3.0  # rows 1-4 empty
    csr = CSRMatrix.from_dense(dense)
    x = rng.standard_normal(6)
    assert np.allclose(csr.spmv(x), dense @ x)


def test_all_empty_matrix():
    csr = CSRMatrix.from_coo(COOMatrix.empty((4, 4)))
    assert np.array_equal(csr.spmv(np.ones(4)), np.zeros(4))


def test_spmv_rows_partition(sym_dense_medium, rng):
    csr = CSRMatrix.from_dense(sym_dense_medium)
    x = rng.standard_normal(csr.n_cols)
    y = np.zeros(csr.n_rows)
    for start, end in [(0, 100), (100, 207), (207, 300)]:
        csr.spmv_rows(x, y, start, end)
    assert np.allclose(y, sym_dense_medium @ x)


def test_spmv_rows_trailing_empty(rng):
    dense = np.zeros((5, 5))
    dense[0, 0] = 1.0
    csr = CSRMatrix.from_dense(dense)
    x = rng.standard_normal(5)
    y = np.zeros(5)
    csr.spmv_rows(x, y, 3, 5)  # all-empty partition
    assert np.array_equal(y, np.zeros(5))


def test_invalid_rowptr_rejected():
    with pytest.raises(ValueError):
        CSRMatrix((2, 2), [0, 1], [0], [1.0])  # rowptr too short
    with pytest.raises(ValueError):
        CSRMatrix((2, 2), [1, 1, 1], [0], [1.0])  # doesn't start at 0
    with pytest.raises(ValueError):
        CSRMatrix((2, 2), [0, 2, 1], [0], [1.0])  # decreasing / bad end


def test_column_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        CSRMatrix((2, 2), [0, 1, 1], [5], [1.0])


@pytest.mark.parametrize(
    "colind",
    [
        [-1],
        np.array([2**32 + 2], dtype=np.int64),  # narrowed to int32: 2
        np.array([2**32 + 2], dtype=np.uint64),
    ],
)
def test_out_of_range_column_rejected_not_wrapped(colind):
    with pytest.raises(BoundsError):
        CSRMatrix((3, 3), [0, 1, 1, 1], colind, [1.0])


@pytest.mark.parametrize("colind", [[1.9], [1.0], [True]])
def test_non_integer_column_rejected(colind):
    # 1.9 narrowed to int32 is 1.
    with pytest.raises(DTypeError):
        CSRMatrix((3, 3), [0, 1, 1, 1], colind, [1.0])


def test_wide_or_fractional_rowptr_rejected():
    with pytest.raises(BoundsError):
        CSRMatrix((2, 2), np.array([0, 2**32 + 1, 1]), [0], [1.0])
    with pytest.raises(DTypeError):
        CSRMatrix((2, 2), [0.0, 1.0, 1.0], [0], [1.0])


@pytest.mark.parametrize("bounds", [(-1, 2), (2, 1), (0, 3)])
def test_row_range_kernel_rejects_bad_range(bounds):
    csr = CSRMatrix.from_dense(np.eye(2))
    with pytest.raises(PartitionError):
        csr.spmv_rows(np.ones(2), np.zeros(2), *bounds)


def test_row_access(sym_dense_small):
    csr = CSRMatrix.from_dense(sym_dense_small)
    cols, vals = csr.row(3)
    expected_cols = np.nonzero(sym_dense_small[3])[0]
    assert np.array_equal(cols, expected_cols)
    assert np.array_equal(vals, sym_dense_small[3][expected_cols])


def test_row_nnz(sym_dense_small):
    csr = CSRMatrix.from_dense(sym_dense_small)
    assert np.array_equal(csr.row_nnz(), (sym_dense_small != 0).sum(axis=1))


def test_to_coo_roundtrip(sym_coo_medium):
    csr = CSRMatrix.from_coo(sym_coo_medium)
    back = csr.to_coo()
    assert np.array_equal(back.to_dense(), sym_coo_medium.to_dense())


def test_spmv_empty_rows():
    # The empty middle row sits between two stored rows.
    csr = CSRMatrix((3, 3), [0, 2, 2, 3], [0, 2, 1], [1.0, 2.0, 5.0])
    assert np.array_equal(csr.spmv(np.ones(3)), [3.0, 0.0, 5.0])


def test_spmv_without_entries():
    csr = CSRMatrix((2, 2), [0, 0, 0], [], [])
    assert np.array_equal(csr.spmv(np.ones(2)), [0.0, 0.0])


@pytest.mark.parametrize("k", [None, 2])
def test_row_range_kernels_sum_rows_locally(k):
    # The fuzz-found rounding defect (a global prefix-sum difference
    # wiped out a tiny row after a huge one) through the row-range
    # kernels: each row is summed on its own, so it stays exact.
    def rhs(x):
        return x if k is None else np.repeat(x[:, None], k, axis=1)

    csr = CSRMatrix.from_dense(np.array([[1e100, 0.0], [0.0, 3.0]]))
    rows_kernel = csr.spmv_rows if k is None else csr.spmm_rows
    for start in (0, 1):
        y = np.zeros((2,) if k is None else (2, k))
        rows_kernel(rhs(np.ones(2)), y, start, 2)
        assert np.all(y[1] == 3.0)

    dense = np.zeros((3, 3))
    dense[1, 0] = dense[0, 1] = 1e100
    dense[2, 0] = dense[0, 2] = 3.0
    sss = SSSMatrix.from_dense(dense)
    for start in (0, 1, 2):
        y_direct = np.zeros((3,) if k is None else (3, k))
        y_local = np.zeros_like(y_direct)
        kernel = sss.spmv_partition if k is None else sss.spmm_partition
        kernel(rhs(np.array([1.0, 0.0, 0.0])), y_direct, y_local, start, 3)
        assert np.all(y_direct[2] == 3.0)


def test_spmv_against_scipy(sym_coo_medium, rng):
    csr = CSRMatrix.from_coo(sym_coo_medium)
    sp = sym_coo_medium.to_scipy()
    x = rng.standard_normal(csr.n_cols)
    assert np.allclose(csr.spmv(x), sp @ x)
