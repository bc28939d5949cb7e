"""Compressed Sparse Row (CSR): the paper's baseline format.

Size follows eq. (1): ``S_CSR = 12*NNZ + 4*(N+1)`` with 8-byte values and
4-byte ``colind`` / ``rowptr`` entries.

The SpM×V kernels run scipy's compiled ``csr_matvec(s)`` (see
:mod:`repro.formats.compiled` and DESIGN.md, substitution table): the
tight C loop of the original implementation, with each row summed
independently in stored order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import INDEX_BYTES, VALUE_BYTES, SparseFormat
from .compiled import csr_matvec
from .coo import COOMatrix
from .validate import (
    ShapeError,
    check_row_range,
    narrow_compressed_indices,
)

__all__ = ["CSRMatrix"]


class CSRMatrix(SparseFormat):
    """Compressed Sparse Row storage.

    Parameters
    ----------
    shape : (int, int)
    rowptr : integer array of length ``n_rows + 1``
    colind : integer array of length ``nnz`` (column-sorted within rows)
    values : float64 array of length ``nnz``

    The index arrays are checked on the caller's dtype and values
    before they are narrowed to int32 storage.
    """

    format_name = "csr"

    def __init__(
        self,
        shape: tuple[int, int],
        rowptr: np.ndarray,
        colind: np.ndarray,
        values: np.ndarray,
    ):
        super().__init__(shape)
        rowptr, colind = narrow_compressed_indices(
            rowptr, colind, self.n_rows, self.n_cols
        )
        values = np.asarray(values, dtype=np.float64)
        if colind.shape != values.shape:
            raise ShapeError("colind and values length mismatch")
        self.rowptr = rowptr
        self.colind = colind
        self.values = values

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        counts = np.bincount(coo.rows, minlength=coo.n_rows)
        rowptr = np.zeros(coo.n_rows + 1, dtype=np.int32)
        np.cumsum(counts, out=rowptr[1:])
        # COOMatrix keeps entries row-major sorted, so cols/vals are ready.
        return cls(coo.shape, rowptr, coo.cols, coo.vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def stored_entries(self) -> int:
        return int(self.values.size)

    def size_bytes(self) -> int:
        """Paper eq. (1): ``12*NNZ + 4*(N+1)``."""
        return (
            self.nnz * (VALUE_BYTES + INDEX_BYTES)
            + (self.n_rows + 1) * INDEX_BYTES
        )

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        x, y = self._check_spmv_args(x, y)
        csr_matvec(self.rowptr, self.colind, self.values, x, y)
        return y

    def spmv_rows(
        self, x: np.ndarray, y: np.ndarray, row_start: int, row_end: int
    ) -> None:
        """Partition kernel: compute rows ``[row_start, row_end)`` into
        ``y[row_start:row_end]`` (the multithreaded CSR building block —
        rows are independent, no reduction needed)."""
        check_row_range(row_start, row_end, self.n_rows)
        if x.shape[0] != self.n_cols:
            raise ShapeError(
                f"x has {x.shape[0]} rows, expected {self.n_cols}"
            )
        y_rows = y[row_start:row_end]
        y_rows[...] = 0.0
        csr_matvec(
            self.rowptr[row_start: row_end + 1], self.colind, self.values,
            x, y_rows,
        )

    def spmm(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Multi-RHS product: one traversal of (rowptr, colind, values)
        computes all ``k`` columns — matrix traffic is paid once.
        Column ``j`` is bit-identical to ``spmv`` of column ``j``."""
        X, Y = self._check_spmm_args(X, Y)
        csr_matvec(self.rowptr, self.colind, self.values, X, Y)
        return Y

    def spmm_rows(
        self, X: np.ndarray, Y: np.ndarray, row_start: int, row_end: int
    ) -> None:
        """Multi-RHS partition kernel (``(n, k)`` analogue of
        :meth:`spmv_rows`)."""
        self.spmv_rows(X, Y, row_start, row_end)

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int32), np.diff(self.rowptr)
        )
        return COOMatrix(
            self.shape, rows, self.colind, self.values, sum_duplicates=False
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def row_nnz(self) -> np.ndarray:
        return np.diff(self.rowptr).astype(np.int64)

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of stored row ``r``."""
        lo, hi = self.rowptr[r], self.rowptr[r + 1]
        return self.colind[lo:hi], self.values[lo:hi]
