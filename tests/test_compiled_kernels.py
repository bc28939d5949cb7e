"""Contract of scipy's private sparsetools routines, as the compiled
SSS/CSR kernels use them (through :mod:`repro.formats.compiled`).

The routines are private API: a scipy release that changed what is
relied on here — accumulating into the output instead of overwriting
it, writing through a view, refusing a wrong output dtype — must fail
these tests rather than silently miscompute.
"""

import numpy as np
import pytest

from repro.formats.compiled import csc_matvec, csr_matvec
from repro.formats.validate import ShapeError

# A 3x3 example: rows [[1, 0, 2], [0, 0, 0], [4, 5, 0]].
ROWPTR = np.array([0, 2, 2, 4], dtype=np.int32)
COLIND = np.array([0, 2, 0, 1], dtype=np.int32)
VALUES = np.array([1.0, 2.0, 4.0, 5.0])
DENSE = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [4.0, 5.0, 0.0]])
X = np.array([1.0, 10.0, 100.0])


def _block(k):
    return np.stack([X * (j + 1) for j in range(k)], axis=1)


@pytest.mark.parametrize("k", [None, 3])
def test_routines_accumulate_into_output(k):
    x = X if k is None else _block(k)
    y = np.full((3,) if k is None else (3, k), 7.0)
    csr_matvec(ROWPTR, COLIND, VALUES, x, y)
    assert np.array_equal(y, 7.0 + DENSE @ x)
    # The same triple read column-wise is the transposed product.
    y = np.full_like(y, 7.0)
    csc_matvec(ROWPTR, COLIND, VALUES, x, y)
    assert np.array_equal(y, 7.0 + DENSE.T @ x)


@pytest.mark.parametrize("k", [None, 3])
def test_routines_write_through_views(k):
    x = X if k is None else _block(k)
    tail = () if k is None else (k,)
    # A contiguous slice: only the slice changes.
    y = np.zeros((5,) + tail)
    csr_matvec(ROWPTR, COLIND, VALUES, x, y[1:4])
    assert np.array_equal(y[1:4], DENSE @ x)
    assert not y[0].any() and not y[4].any()
    # A strided view is written back element by element.
    y = np.ones((6,) + tail)
    csc_matvec(ROWPTR, COLIND, VALUES, x, y[::2])
    assert np.array_equal(y[::2], 1.0 + DENSE.T @ x)
    assert np.array_equal(y[1::2], np.ones_like(y[1::2]))


def test_row_range_through_rowptr_slice():
    # Offsets in a rowptr slice stay absolute: rows 2..3 alone.
    y = np.zeros(1)
    csr_matvec(ROWPTR[2:], COLIND, VALUES, X, y)
    assert np.array_equal(y, DENSE[2:] @ X)


@pytest.mark.parametrize("kernel", [csr_matvec, csc_matvec])
def test_wrong_output_dtype_rejected(kernel):
    y = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError):
        kernel(ROWPTR, COLIND, VALUES, X, y)
    assert not y.any()


@pytest.mark.parametrize("kernel", [csr_matvec, csc_matvec])
def test_operand_extent_mismatch_rejected(kernel):
    # The routines do no bounds checking; the wrapper checks extents.
    with pytest.raises(ShapeError):
        kernel(ROWPTR, COLIND, VALUES, X[:2], np.zeros(2))
    with pytest.raises(ShapeError):
        kernel(ROWPTR, COLIND, VALUES, _block(2), np.zeros((3, 3)))


def test_formats_hand_int32_indices_and_float64_values(monkeypatch):
    """A mixed int32/int64 pair makes sparsetools upcast — a hidden copy
    on every call — so every routine call from the SSS and CSR kernels
    must see int32 index arrays and float64 values, even when the
    matrix was built from int64 indices."""
    from repro.formats import COOMatrix, CSRMatrix, SSSMatrix, compiled
    from repro.parallel import ParallelSpMV, ParallelSymmetricSpMV

    from tests.conformance import CASES, rhs_block

    calls = []
    routines = compiled._st

    class Recorder:
        def __getattr__(self, name):
            routine = getattr(routines, name)

            def record(*args):
                calls.append(
                    [a.dtype for a in args if isinstance(a, np.ndarray)]
                )
                return routine(*args)

            return record

    monkeypatch.setattr(compiled, "_st", Recorder())
    coo = COOMatrix.from_dense(CASES["random"].dense)
    n = coo.n_rows
    lower = coo.lower_triangle(strict=True)
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lower.rows, minlength=n), out=rowptr[1:])
    sss = SSSMatrix(
        coo.shape, coo.diagonal(), rowptr,
        lower.cols.astype(np.int64), lower.vals,
    )
    csr = CSRMatrix.from_coo(coo)
    parts = [(0, 10), (10, 20), (20, n)]
    for x in (rhs_block(n, None), rhs_block(n, 3)):
        sss.spmv(x) if x.ndim == 1 else sss.spmm(x)
        csr.spmv(x) if x.ndim == 1 else csr.spmm(x)
        for method in ("naive", "effective", "indexed"):
            ParallelSymmetricSpMV(sss, parts, method)(x)
        ParallelSpMV(csr, parts)(x)
    assert calls
    i4, f8 = np.dtype(np.int32), np.dtype(np.float64)
    for dtypes in calls:
        assert dtypes == [i4, i4, f8, f8, f8]
