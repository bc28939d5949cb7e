"""Unit tests for the COO interchange format."""

import numpy as np
import pytest

from repro.formats import COOMatrix
from repro.formats.validate import BoundsError, DTypeError


def test_from_dense_roundtrip(sym_dense_small):
    coo = COOMatrix.from_dense(sym_dense_small)
    assert np.array_equal(coo.to_dense(), sym_dense_small)


def test_entries_are_canonically_sorted():
    coo = COOMatrix((3, 3), [2, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0])
    assert np.array_equal(coo.rows, [0, 1, 2])
    assert np.array_equal(coo.cols, [1, 2, 0])
    assert np.array_equal(coo.vals, [2.0, 3.0, 1.0])


def test_duplicates_are_summed():
    coo = COOMatrix((2, 2), [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
    assert coo.nnz == 2
    assert coo.to_dense()[0, 1] == 3.0


def test_duplicates_kept_when_disabled():
    coo = COOMatrix(
        (2, 2), [0, 0], [1, 1], [1.0, 2.0], sum_duplicates=False
    )
    assert coo.nnz == 2
    # SpM×V still accumulates both entries.
    y = coo.spmv(np.array([0.0, 1.0]))
    assert y[0] == 3.0


def test_drop_zeros():
    coo = COOMatrix(
        (2, 2), [0, 1], [0, 1], [0.0, 1.0], drop_zeros=True
    )
    assert coo.nnz == 1


def test_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        COOMatrix((2, 2), [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        COOMatrix((2, 2), [0, -1], [0, 0], [1.0, 1.0])


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_wide_index_rejected_not_wrapped(dtype):
    # 2**32 + 3 narrowed to int32 would wrap to a valid row 3.
    wide = np.array([2**32 + 3], dtype=dtype)
    with pytest.raises(BoundsError):
        COOMatrix((10, 10), wide, [0], [1.0])
    with pytest.raises(BoundsError):
        COOMatrix((10, 10), [0], wide, [1.0])


@pytest.mark.parametrize("index", [[3.7], [3.0], [True]])
def test_non_integer_index_rejected(index):
    with pytest.raises(DTypeError):
        COOMatrix((10, 10), index, [0], [1.0])
    with pytest.raises(DTypeError):
        COOMatrix((10, 10), [0], index, [1.0])


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint64])
def test_any_integer_index_dtype_accepted(dtype):
    idx = np.array([3, 1], dtype=dtype)
    coo = COOMatrix((10, 10), idx, idx, [1.0, 2.0])
    assert coo.rows.dtype == np.int32
    assert np.array_equal(coo.rows, [1, 3])


def test_empty_index_arrays_of_any_dtype_accepted():
    empty = COOMatrix((4, 4), np.zeros(0), np.zeros(0, dtype=bool), [])
    assert empty.nnz == 0 and empty.rows.dtype == np.int32


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        COOMatrix((2, 2), [0, 1], [0], [1.0, 1.0])


def test_spmv_matches_dense(sym_dense_small, rng):
    coo = COOMatrix.from_dense(sym_dense_small)
    x = rng.standard_normal(coo.n_cols)
    assert np.allclose(coo.spmv(x), sym_dense_small @ x)


def test_spmv_rectangular(rng):
    dense = rng.random((4, 7))
    dense[dense < 0.5] = 0.0
    coo = COOMatrix.from_dense(dense)
    x = rng.standard_normal(7)
    assert np.allclose(coo.spmv(x), dense @ x)


def test_spmv_wrong_x_shape(sym_coo_small):
    with pytest.raises(ValueError):
        sym_coo_small.spmv(np.zeros(sym_coo_small.n_cols + 1))


def test_transpose(rng):
    dense = rng.random((5, 3))
    coo = COOMatrix.from_dense(dense)
    assert np.array_equal(coo.transpose().to_dense(), dense.T)


def test_is_symmetric(sym_coo_small):
    assert sym_coo_small.is_symmetric()
    assert sym_coo_small.is_structurally_symmetric()


def test_is_not_symmetric():
    coo = COOMatrix((2, 2), [0], [1], [1.0])
    assert not coo.is_symmetric()
    rect = COOMatrix((2, 3), [0], [1], [1.0])
    assert not rect.is_symmetric()


def test_structural_but_not_value_symmetric():
    coo = COOMatrix((2, 2), [0, 1], [1, 0], [1.0, 2.0])
    assert coo.is_structurally_symmetric()
    assert not coo.is_symmetric()


def test_lower_triangle(sym_coo_small):
    strict = sym_coo_small.lower_triangle(strict=True)
    assert np.all(strict.cols < strict.rows)
    loose = sym_coo_small.lower_triangle(strict=False)
    assert np.all(loose.cols <= loose.rows)
    assert loose.nnz == strict.nnz + np.count_nonzero(
        sym_coo_small.diagonal()
    )


def test_diagonal(sym_dense_small):
    coo = COOMatrix.from_dense(sym_dense_small)
    assert np.array_equal(coo.diagonal(), np.diag(sym_dense_small))


def test_permute_symmetric(sym_dense_small, rng):
    coo = COOMatrix.from_dense(sym_dense_small)
    perm = rng.permutation(coo.n_rows)
    permuted = coo.permute_symmetric(perm)
    expected = sym_dense_small[np.ix_(perm, perm)]
    assert np.array_equal(permuted.to_dense(), expected)


def test_permute_rejects_bad_perm(sym_coo_small):
    with pytest.raises(ValueError):
        sym_coo_small.permute_symmetric(np.arange(3))


def test_row_counts(sym_coo_small, sym_dense_small):
    expected = (sym_dense_small != 0).sum(axis=1)
    assert np.array_equal(sym_coo_small.row_counts(), expected)


def test_bandwidth():
    coo = COOMatrix((5, 5), [0, 4], [0, 0], [1.0, 1.0])
    assert coo.bandwidth() == 4
    assert COOMatrix.empty((3, 3)).bandwidth() == 0


def test_size_bytes(sym_coo_small):
    assert sym_coo_small.size_bytes() == sym_coo_small.nnz * 16


def test_to_scipy_roundtrip(sym_coo_small):
    sp = sym_coo_small.to_scipy()
    back = COOMatrix.from_scipy(sp)
    assert np.array_equal(back.to_dense(), sym_coo_small.to_dense())


def test_empty_matrix():
    coo = COOMatrix.empty((4, 4))
    assert coo.nnz == 0
    y = coo.spmv(np.ones(4))
    assert np.array_equal(y, np.zeros(4))


# ----------------------------------------------------------------------
# Canonicality-aware symmetry checks (fuzz-hardening regressions)
# ----------------------------------------------------------------------
def test_is_symmetric_on_noncanonical_instance():
    # Surviving duplicates used to make is_symmetric compare the raw
    # entry arrays against the (canonicalized, shorter) transpose and
    # report False for a perfectly symmetric matrix.
    coo = COOMatrix(
        (3, 3), [2, 0, 2, 1, 0], [0, 2, 0, 1, 0],
        [3.0, 4.0, 1.0, 1.0, 2.0],
        sum_duplicates=False,
    )
    assert not coo.is_canonical
    assert coo.is_symmetric()
    assert coo.is_structurally_symmetric()


def test_is_symmetric_with_duplicates():
    # Duplicates whose *sums* are symmetric: the dirty instance must
    # agree with the canonical verdict.
    coo = COOMatrix(
        (2, 2), [1, 0, 1], [0, 1, 0], [1.0, 3.0, 2.0],
        sum_duplicates=False,
    )
    assert coo.is_symmetric()


def test_is_symmetric_asymmetric_noncanonical():
    coo = COOMatrix(
        (2, 2), [1, 0], [0, 1], [1.0, 5.0], sum_duplicates=False
    )
    assert not coo.is_symmetric()
    assert coo.is_structurally_symmetric()


def test_canonicalize():
    dirty = COOMatrix(
        (2, 2), [1, 0, 1], [0, 1, 0], [1.0, 3.0, 2.0],
        sum_duplicates=False,
    )
    canon = dirty.canonicalize()
    assert canon.is_canonical
    assert np.array_equal(canon.to_dense(), dirty.to_dense())
    # Already-canonical instances return themselves.
    assert canon.canonicalize() is canon
