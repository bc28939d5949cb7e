"""Coordinate (COO) format: the construction and interchange substrate.

Every other format in the library converts to/from COO. The class keeps
entries canonical (row-major sorted, duplicates summed, explicit zeros
dropped on request), which makes format round-trip testing exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import INDEX_BYTES, VALUE_BYTES, RowScatter, SparseFormat
from .validate import (
    check_entry_arrays,
    check_finite,
    check_index_bounds,
)

__all__ = ["COOMatrix"]


class COOMatrix(SparseFormat):
    """Coordinate-format sparse matrix with canonical entry ordering.

    Parameters
    ----------
    shape : (int, int)
    rows, cols : integer arrays of equal length
    vals : float array of equal length
    sum_duplicates : bool
        Combine entries with identical coordinates (default True).
    drop_zeros : bool
        Remove explicitly stored zero values (default False — formats
        may legitimately carry explicit zeros, e.g. inside CSX blocks).
    allow_nonfinite : bool
        Permit NaN/inf stored values (default False: construction
        raises :class:`~repro.formats.validate.NonFiniteError`).
    """

    format_name = "coo"

    def __init__(
        self,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        *,
        sum_duplicates: bool = True,
        drop_zeros: bool = False,
        allow_nonfinite: bool = False,
    ):
        super().__init__(shape)
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        vals = np.asarray(vals, dtype=np.float64)
        check_entry_arrays(rows, cols, vals)
        check_index_bounds(rows, cols, self.shape)
        rows = rows.astype(np.int32, copy=False)
        cols = cols.astype(np.int32, copy=False)
        if not allow_nonfinite:
            check_finite(vals, "stored values")

        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        canonical = True

        if rows.size:
            keys = rows.astype(np.int64) * self.n_cols + cols
            if sum_duplicates:
                uniq, inverse = np.unique(keys, return_inverse=True)
                if uniq.size != keys.size:
                    summed = np.zeros(uniq.size, dtype=np.float64)
                    np.add.at(summed, inverse, vals)
                    rows = (uniq // self.n_cols).astype(np.int32)
                    cols = (uniq % self.n_cols).astype(np.int32)
                    vals = summed
            else:
                canonical = bool(np.all(np.diff(keys) > 0))

        if drop_zeros and vals.size:
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]

        self.rows = rows
        self.cols = cols
        self.vals = vals
        #: True when entries are sorted with unique coordinates (always
        #: the case after ``sum_duplicates=True`` construction).
        self.is_canonical = canonical
        self._spmm_scatter: Optional[RowScatter] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense matrix must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix."""
        m = mat.tocoo()
        return cls(m.shape, m.row, m.col, m.data)

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        z = np.zeros(0)
        return cls(shape, z, z, z)

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def stored_entries(self) -> int:
        return int(self.vals.size)

    def size_bytes(self) -> int:
        """COO stores a (row, col, value) triplet per entry."""
        return self.nnz * (2 * INDEX_BYTES + VALUE_BYTES)

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        x, y = self._check_spmv_args(x, y)
        np.add.at(y, self.rows, self.vals * x[self.cols])
        return y

    def spmm(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Multi-RHS product: one scatter pass for all ``k`` columns."""
        X, Y = self._check_spmm_args(X, Y)
        if self._spmm_scatter is None:
            self._spmm_scatter = RowScatter(self.rows)
        self._spmm_scatter.add(Y, self.vals[:, None] * X[self.cols])
        return Y

    def to_coo(self) -> "COOMatrix":
        return self

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=self.shape
        ).tocsr()

    # ------------------------------------------------------------------
    # Structure queries / transforms
    # ------------------------------------------------------------------
    def canonicalize(self) -> "COOMatrix":
        """Canonical (row-major sorted, duplicate-summed) equivalent.

        Returns ``self`` when already canonical; explicit zeros are
        kept either way.
        """
        if self.is_canonical:
            return self
        return COOMatrix(
            self.shape, self.rows, self.cols, self.vals,
            allow_nonfinite=True,
        )

    def transpose(self) -> "COOMatrix":
        return COOMatrix(
            (self.n_cols, self.n_rows), self.cols, self.rows, self.vals,
            allow_nonfinite=True,
        )

    def is_structurally_symmetric(self) -> bool:
        """True if the sparsity pattern equals its transpose.

        Both sides are canonicalized first: ``transpose()`` sums
        duplicates, so comparing a *non-canonical* instance (built with
        ``sum_duplicates=False``) against it entry-wise would compare
        different entry sets and return a wrong verdict.
        """
        if self.n_rows != self.n_cols:
            return False
        a = self.canonicalize()
        t = a.transpose()
        return (
            np.array_equal(a.rows, t.rows)
            and np.array_equal(a.cols, t.cols)
        )

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        """True if the matrix equals its transpose (values included)."""
        if self.n_rows != self.n_cols:
            return False
        a = self.canonicalize()
        t = a.transpose()
        return (
            np.array_equal(a.rows, t.rows)
            and np.array_equal(a.cols, t.cols)
            and bool(np.allclose(a.vals, t.vals, rtol=rtol, atol=0.0))
        )

    def lower_triangle(self, *, strict: bool = False) -> "COOMatrix":
        """Entries with ``col <= row`` (``col < row`` when strict)."""
        mask = self.cols < self.rows if strict else self.cols <= self.rows
        return COOMatrix(
            self.shape, self.rows[mask], self.cols[mask], self.vals[mask]
        )

    def diagonal(self) -> np.ndarray:
        """Dense main-diagonal vector (length ``min(shape)``)."""
        d = np.zeros(min(self.shape), dtype=np.float64)
        mask = self.rows == self.cols
        d[self.rows[mask]] = self.vals[mask]
        return d

    def permute_symmetric(self, perm: np.ndarray) -> "COOMatrix":
        """Apply the symmetric permutation ``A' = P A P^T``.

        ``perm[k]`` is the *original* index placed at position ``k``
        (scipy's ``reverse_cuthill_mckee`` convention). Row ``perm[k]``
        of ``A`` becomes row ``k`` of ``A'``.
        """
        perm = np.asarray(perm)
        if perm.shape != (self.n_rows,) or self.n_rows != self.n_cols:
            raise ValueError("perm must be a permutation of the square matrix rows")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        return COOMatrix(
            self.shape, inv[self.rows], inv[self.cols], self.vals
        )

    def row_counts(self) -> np.ndarray:
        """Number of stored entries per row (length ``n_rows``)."""
        return np.bincount(self.rows, minlength=self.n_rows).astype(np.int64)

    def bandwidth(self) -> int:
        """Matrix (half-)bandwidth: ``max |row - col|`` over entries."""
        if self.nnz == 0:
            return 0
        return int(np.abs(self.rows.astype(np.int64) - self.cols).max())
