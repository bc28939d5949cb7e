"""Symmetric Sparse Skyline (SSS) storage (paper Section II-B).

SSS stores a symmetric matrix as a separate dense main-diagonal array
``dvalues`` plus the *strictly lower* triangle in CSR form. Size follows
eq. (2): ``S_SSS = 6*(NNZ + N) + 4`` for a matrix with ``NNZ`` logical
non-zeros (both triangles, full diagonal) of rank ``N``.

The serial kernel is Alg. 2; the partition kernel used by the
multithreaded algorithms (Alg. 3) routes transposed contributions either
directly into the output vector (inside the thread's own row range) or
into the thread's local vector (rows before the partition), which is the
behaviour the three reduction methods of Section III build upon.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import INDEX_BYTES, VALUE_BYTES, SymmetricFormat
from .compiled import csc_matvec, csr_matvec
from .coo import COOMatrix
from .validate import (
    PartitionError,
    ShapeError,
    SymmetryError,
    TriangleConventionError,
    check_row_range,
    narrow_compressed_indices,
)

__all__ = ["SSSMatrix"]


class SSSMatrix(SymmetricFormat):
    """Sparse Symmetric Skyline storage of a symmetric matrix.

    Parameters
    ----------
    shape : (int, int) — must be square.
    dvalues : float64 array of length ``N`` (dense main diagonal; zeros
        allowed for structurally missing diagonal entries).
    rowptr, colind, values : CSR triple of the strictly lower triangle.
        The index arrays are checked on the caller's dtype and values
        (integer, ``0 <= colind[jj] < row``) before they are narrowed
        to int32 storage.
    """

    format_name = "sss"

    def __init__(
        self,
        shape: tuple[int, int],
        dvalues: np.ndarray,
        rowptr: np.ndarray,
        colind: np.ndarray,
        values: np.ndarray,
    ):
        super().__init__(shape)
        dvalues = np.asarray(dvalues, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if dvalues.shape != (self.n_rows,):
            raise ShapeError("dvalues must have length N")
        rowptr, colind = narrow_compressed_indices(
            rowptr, colind, self.n_rows, self.n_cols
        )
        if colind.shape != values.shape:
            raise ShapeError("colind/values length mismatch")
        if colind.size and np.any(colind >= _row_of_entry(rowptr)):
            raise TriangleConventionError(
                "SSS off-diagonal entries must be strictly lower"
            )
        self.dvalues = dvalues
        self.rowptr = rowptr
        self.colind = colind
        self.values = values

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, *, check_symmetry: bool = True) -> "SSSMatrix":
        """Build from an (expanded) symmetric COO matrix."""
        if check_symmetry and not coo.is_symmetric():
            raise SymmetryError("matrix is not symmetric; SSS requires symmetry")
        lower = coo.lower_triangle(strict=True)
        counts = np.bincount(lower.rows, minlength=coo.n_rows)
        rowptr = np.zeros(coo.n_rows + 1, dtype=np.int32)
        np.cumsum(counts, out=rowptr[1:])
        return cls(coo.shape, coo.diagonal(), rowptr, lower.cols, lower.vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SSSMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Logical non-zeros of the expanded matrix."""
        return int(2 * self.values.size + np.count_nonzero(self.dvalues))

    @property
    def stored_entries(self) -> int:
        """Explicit value entries: N diagonal slots + lower triangle."""
        return int(self.n_rows + self.values.size)

    @property
    def nnz_lower(self) -> int:
        """Stored strictly-lower entries, ``(NNZ - N) / 2`` in the paper."""
        return int(self.values.size)

    def size_bytes(self) -> int:
        """Paper eq. (2): ``8N + 12*(NNZ-N)/2 + 4*(N+1) = 6(NNZ+N) + 4``."""
        return (
            self.n_rows * VALUE_BYTES
            + self.nnz_lower * (VALUE_BYTES + INDEX_BYTES)
            + (self.n_rows + 1) * INDEX_BYTES
        )

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        """Serial symmetric SpM×V (Alg. 2): the diagonal, then the
        stored lower rows as a compiled CSR gather and their transposed
        contributions as a compiled CSC scatter over the same triple."""
        x, y = self._check_spmv_args(x, y)
        return self._apply(x, y)

    def spmm(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Multi-RHS symmetric product: one pass over the stored lower
        triangle serves all ``k`` columns (direct and transposed halves
        alike), so the ``6(NNZ+N)`` matrix bytes are streamed once.
        Column ``j`` is bit-identical to ``spmv`` of column ``j``."""
        X, Y = self._check_spmm_args(X, Y)
        return self._apply(X, Y)

    def _apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = self.dvalues if x.ndim == 1 else self.dvalues[:, None]
        np.multiply(d, x, out=y)
        csr_matvec(self.rowptr, self.colind, self.values, x, y)
        csc_matvec(self.rowptr, self.colind, self.values, x, y)
        return y

    def partition_kernel(
        self, row_start: int, row_end: int, k: Optional[int] = None
    ):
        """The partition's Alg. 3 kernel with its local/direct split
        built now, once; the caller (a bound operator) owns the kernel
        and the split it holds."""
        split = _PartitionSplit(self, row_start, row_end)
        method = self.spmv_partition if k is None else self.spmm_partition

        def kernel(x, y_direct, y_local) -> None:
            method(x, y_direct, y_local, row_start, row_end, split)

        return kernel

    def spmv_partition(
        self,
        x: np.ndarray,
        y_direct: np.ndarray,
        y_local: np.ndarray,
        row_start: int,
        row_end: int,
        split: Optional["_PartitionSplit"] = None,
    ) -> None:
        """Partition kernel for Alg. 3 (one thread's multiplication phase).

        Stored rows ``[row_start, row_end)`` are computed. Row results and
        transposed contributions landing inside the partition accumulate
        into ``y_direct``; transposed contributions to rows before
        ``row_start`` go to ``y_local``. ``split`` is the partition's
        local/direct split from :meth:`partition_kernel` (what bound
        operators pass); without one the call builds its own, uncached.
        """
        _split_for(self, row_start, row_end, split).apply(
            x, y_direct, y_local
        )

    def spmm_partition(
        self,
        X: np.ndarray,
        Y_direct: np.ndarray,
        Y_local: np.ndarray,
        row_start: int,
        row_end: int,
        split: Optional["_PartitionSplit"] = None,
    ) -> None:
        """Multi-RHS partition kernel: :meth:`spmv_partition` with
        ``(n, k)`` operands, one structure traversal for all columns."""
        _split_for(self, row_start, row_end, split).apply(
            X, Y_direct, Y_local
        )

    def lower_triple(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy lower-triangle CSR view — SSS *is* the triple."""
        return self.dvalues, self.rowptr, self.colind, self.values

    def to_coo(self) -> COOMatrix:
        """Expand to a full (both-triangle) COO matrix."""
        diag_rows = np.flatnonzero(self.dvalues).astype(np.int32)
        lower_rows = _row_of_entry(self.rowptr)
        rows = np.concatenate([lower_rows, self.colind, diag_rows])
        cols = np.concatenate([self.colind, lower_rows, diag_rows])
        vals = np.concatenate(
            [self.values, self.values, self.dvalues[diag_rows]]
        )
        return COOMatrix(self.shape, rows, cols, vals, sum_duplicates=False)

    # ------------------------------------------------------------------
    # Partition structure queries (used by the reduction machinery)
    # ------------------------------------------------------------------
    def partition_conflict_rows(self, row_start: int, row_end: int) -> np.ndarray:
        """Sorted unique output rows *before* ``row_start`` that the
        partition's transposed contributions write to.

        These are exactly the non-zero elements of the partition's local
        vector — the quantity the local-vectors indexing scheme of
        Section III-C indexes.
        """
        lo, hi = self.rowptr[row_start], self.rowptr[row_end]
        cols = self.colind[lo:hi]
        return np.unique(cols[cols < row_start]).astype(np.int64)

    def row_nnz_lower(self) -> np.ndarray:
        """Stored (strictly lower) entries per row."""
        return np.diff(self.rowptr).astype(np.int64)

    def expanded_row_nnz(self) -> np.ndarray:
        """Logical non-zeros per row of the expanded matrix (used by the
        nnz-balanced partitioner so thread loads match the real work)."""
        counts = np.diff(self.rowptr).astype(np.int64)
        counts += np.bincount(
            self.colind, minlength=self.n_rows
        ).astype(np.int64)
        counts += (self.dvalues != 0.0).astype(np.int64)
        return counts


def _row_of_entry(rowptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry (transient; SSS keeps none)."""
    n = rowptr.shape[0] - 1
    return np.repeat(np.arange(n, dtype=np.int32), np.diff(rowptr))


def _split_for(
    matrix: SSSMatrix, row_start: int, row_end: int,
    split: Optional["_PartitionSplit"],
) -> "_PartitionSplit":
    """``split`` when it belongs to ``[row_start, row_end)`` of
    ``matrix``, a fresh one when it is ``None``."""
    if split is None:
        return _PartitionSplit(matrix, row_start, row_end)
    if (split.matrix, split.row_start, split.row_end) != (
        matrix, row_start, row_end
    ):
        raise PartitionError(
            f"split of rows [{split.row_start}, {split.row_end}) passed "
            f"for rows [{row_start}, {row_end})"
        )
    return split


class _PartitionSplit:
    """Bind-time plan of one SSS partition ``[s, e)`` (Alg. 3).

    The partition's stored rows are a CSR slice of the matrix
    (``rowptr[s:e+1]`` with absolute offsets, no copy). Their transposed
    contributions are the CSC reading of the same entries, split by
    target: columns ``< s`` go to the thread's local vector (``local``),
    columns ``>= s`` straight into the output (``direct``). Each half is
    one ``(colptr, rowind, values)`` triple, so each is one compiled
    call into its own target. A half with no entries is ``None``; when
    the other half has every entry it is a view of the matrix arrays,
    so only partitions with both kinds copy their entries (12 B each).
    """

    __slots__ = ("matrix", "row_start", "row_end", "rowptr", "local",
                 "direct")

    def __init__(self, matrix: SSSMatrix, row_start: int, row_end: int):
        check_row_range(row_start, row_end, matrix.n_rows)
        s, e = int(row_start), int(row_end)
        self.matrix = matrix
        self.row_start, self.row_end = s, e
        self.rowptr = rowptr = matrix.rowptr[s: e + 1]
        lo, hi = int(rowptr[0]), int(rowptr[-1])
        cols = matrix.colind[lo:hi]
        is_local = cols < s
        n_local = int(np.count_nonzero(is_local))
        whole = (rowptr, matrix.colind, matrix.values)
        self.local = self.direct = None
        if n_local == 0:
            if hi > lo:
                self.direct = whole
        elif n_local == hi - lo:
            self.local = whole
        else:
            # Per-row count of local entries, from a running count over
            # the partition's entries (rows keep their stored order).
            seen = np.zeros(hi - lo + 1, dtype=np.int32)
            np.cumsum(is_local, out=seen[1:])
            offsets = rowptr - lo
            local_ptr = seen[offsets]
            vals = matrix.values[lo:hi]
            is_direct = ~is_local
            self.local = (local_ptr, cols[is_local], vals[is_local])
            self.direct = (
                offsets - local_ptr, cols[is_direct], vals[is_direct]
            )

    def apply(
        self, x: np.ndarray, y_direct: np.ndarray, y_local: np.ndarray
    ) -> None:
        """Accumulate the partition's product into its two targets
        (``x``/``y_*`` vectors or ``(n, k)`` blocks of length ``N``)."""
        m, s, e = self.matrix, self.row_start, self.row_end
        n = m.n_rows
        if x.shape[0] != n or y_direct.shape[0] != n or (
            self.local is not None and y_local.shape[0] != n
        ):
            raise ShapeError(
                f"partition operands must have {n} rows: x {x.shape}, "
                f"y_direct {y_direct.shape}, "
                f"y_local {getattr(y_local, 'shape', None)}"
            )
        sl = slice(s, e)
        x_own = x[sl]
        y_own = y_direct[sl]
        d = m.dvalues[sl] if x.ndim == 1 else m.dvalues[sl, None]
        y_own += d * x_own
        csr_matvec(self.rowptr, m.colind, m.values, x, y_own)
        if self.local is not None:
            csc_matvec(*self.local, x_own, y_local)
        if self.direct is not None:
            csc_matvec(*self.direct, x_own, y_direct)
