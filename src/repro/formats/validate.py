"""Shared input-validation layer and error taxonomy.

Every entry point that accepts user-controlled data — COO construction,
MatrixMarket parsing, thread partitioning, the parallel-driver operand
checks — routes its validation through this module, so (a) the checks
exist exactly once, (b) failures carry a typed, machine-matchable error
class, and (c) the differential fuzzer (:mod:`repro.fuzz`) can assert
that malformed input is *rejected with the right taxon* instead of
silently mis-computed.

Taxonomy
--------
All errors derive from :class:`ValidationError`, which derives from
``ValueError`` so pre-existing ``except ValueError`` call sites keep
working.  :class:`DTypeError` additionally derives from ``TypeError``
for the same reason.

============================  =============================================
:class:`ShapeError`           operand/array has the wrong shape or ndim
:class:`DTypeError`           operand has the wrong dtype
:class:`BoundsError`          index out of range (negative or >= extent)
:class:`NonFiniteError`       NaN/inf where finite data is required
:class:`CanonicalityError`    duplicate/unsorted entries where canonical
                              (unique, sorted) entries are required
:class:`TriangleConventionError`  symmetric-storage triangle convention
                              violated (entry above the diagonal)
:class:`SymmetryError`        matrix expected symmetric but is not
:class:`ParseError`           malformed MatrixMarket (or other) text
:class:`PartitionError`       thread partitioning does not tile the rows
============================  =============================================

Kernel operands (``x`` vectors) deliberately have **no** default
finiteness check: NaN/inf inputs must propagate through the kernels
with IEEE semantics (``tests/test_failure_injection.py`` pins this).
Use :func:`check_finite` explicitly where strictness is wanted — the
fuzzer and the I/O layer do.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "ShapeError",
    "DTypeError",
    "BoundsError",
    "NonFiniteError",
    "CanonicalityError",
    "TriangleConventionError",
    "SymmetryError",
    "ParseError",
    "PartitionError",
    "check_finite",
    "check_index_bounds",
    "narrow_compressed_indices",
    "check_row_range",
    "check_entry_arrays",
    "check_no_duplicates",
    "check_lower_triangle",
    "check_spmv_args",
    "check_spmm_args",
    "check_driver_x",
    "prepare_driver_y",
    "check_partitions",
]


class ValidationError(ValueError):
    """Base class for all typed input-validation failures."""


class ShapeError(ValidationError):
    """Operand or array has the wrong shape/ndim."""


class DTypeError(ValidationError, TypeError):
    """Operand has the wrong dtype (also a ``TypeError``)."""


class BoundsError(ValidationError):
    """Index out of range for the declared matrix extent."""


class NonFiniteError(ValidationError):
    """NaN or infinity where finite data is required."""


class CanonicalityError(ValidationError):
    """Duplicate or unsorted entries where canonical entries are required."""


class TriangleConventionError(ValidationError):
    """Symmetric-storage lower-triangle convention violated."""


class SymmetryError(ValidationError):
    """Matrix expected symmetric but is not."""


class ParseError(ValidationError):
    """Malformed text input (MatrixMarket)."""


class PartitionError(ValidationError):
    """Thread partitioning does not tile the row range contiguously."""


# ----------------------------------------------------------------------
# Array-content checks
# ----------------------------------------------------------------------
def check_finite(arr: np.ndarray, what: str = "values") -> None:
    """Raise :class:`NonFiniteError` if ``arr`` holds NaN or infinity."""
    if arr.size and not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(np.ravel(arr)))[0])
        raise NonFiniteError(
            f"{what} contain non-finite entries (first at flat index {bad})"
        )


def _check_integer_dtype(arr: np.ndarray, what: str) -> None:
    """Raise :class:`DTypeError` unless a non-empty index array has an
    integer dtype (empty arrays of any dtype carry no index)."""
    if arr.size and arr.dtype.kind not in "iu":
        raise DTypeError(f"{what} must be integer, got {arr.dtype}")


def check_index_bounds(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> None:
    """Raise :class:`DTypeError` unless the (non-empty) index arrays
    have an integer dtype, :class:`BoundsError` unless all indices fit
    ``shape``. Run it on the caller's arrays *before* narrowing them to
    the storage dtype, so a wide or fractional index cannot wrap or
    truncate into range."""
    if rows.size == 0:
        return
    for arr in (rows, cols):
        _check_integer_dtype(arr, "index arrays")
    if rows.min() < 0 or cols.min() < 0:
        raise BoundsError("negative indices")
    if rows.max() >= shape[0] or cols.max() >= shape[1]:
        raise BoundsError(f"index out of bounds for shape {shape}")


def narrow_compressed_indices(
    rowptr, colind, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a compressed-row ``(rowptr, colind)`` pair on the
    caller's arrays, then narrow it to int32 storage.

    The compiled kernels do no bounds checking, so an index that wraps
    or truncates into range here would become an out-of-bounds access
    there. Raises :class:`DTypeError` for non-integer (non-empty)
    arrays, :class:`ShapeError` for a wrong ``rowptr`` length,
    :class:`BoundsError` for a ``rowptr`` entry outside ``[0, nnz]`` or
    a column outside ``[0, n_cols)``, and :class:`ValidationError` when
    ``rowptr`` does not run from 0 to ``nnz`` without decreasing.
    """
    rowptr = np.asarray(rowptr)
    colind = np.asarray(colind)
    _check_integer_dtype(rowptr, "rowptr")
    _check_integer_dtype(colind, "colind")
    if rowptr.shape != (n_rows + 1,):
        raise ShapeError(
            f"rowptr has shape {rowptr.shape}, expected ({n_rows + 1},)"
        )
    if colind.ndim != 1:
        raise ShapeError("colind must be 1-D")
    nnz = colind.size
    if rowptr.min() < 0 or rowptr.max() > nnz:
        raise BoundsError(f"rowptr entries must lie in [0, {nnz}]")
    if nnz and (colind.min() < 0 or colind.max() >= n_cols):
        raise BoundsError(f"column index out of bounds for {n_cols} columns")
    if rowptr[0] != 0 or rowptr[-1] != nnz:
        raise ValidationError("rowptr must start at 0 and end at nnz")
    if np.any(np.diff(rowptr) < 0):
        raise ValidationError("rowptr must be non-decreasing")
    return (
        rowptr.astype(np.int32, copy=False),
        colind.astype(np.int32, copy=False),
    )


def check_row_range(row_start: int, row_end: int, n_rows: int) -> None:
    """Raise :class:`PartitionError` unless ``0 <= row_start <= row_end
    <= n_rows`` (a partition kernel's row range)."""
    if not 0 <= row_start <= row_end <= n_rows:
        raise PartitionError(
            f"row range [{row_start}, {row_end}) outside [0, {n_rows}]"
        )


def check_entry_arrays(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> None:
    """Raise :class:`ShapeError` unless the COO triple is consistent."""
    if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
        raise ShapeError("rows, cols, vals must be equal-length 1-D arrays")


def _entry_keys(
    rows: np.ndarray, cols: np.ndarray, n_cols: int
) -> np.ndarray:
    return rows.astype(np.int64) * max(1, n_cols) + cols.astype(np.int64)


def check_no_duplicates(
    rows: np.ndarray, cols: np.ndarray, n_cols: int, what: str = "entries"
) -> None:
    """Raise :class:`CanonicalityError` when a coordinate appears twice."""
    keys = _entry_keys(rows, cols, n_cols)
    uniq, counts = np.unique(keys, return_counts=True)
    if uniq.size != keys.size:
        first = uniq[counts > 1][0]
        r, c = divmod(int(first), max(1, n_cols))
        raise CanonicalityError(
            f"duplicate {what} at coordinate ({r}, {c})"
        )


def check_lower_triangle(
    rows: np.ndarray, cols: np.ndarray, what: str = "entries"
) -> None:
    """Raise :class:`TriangleConventionError` on entries above the diagonal."""
    above = cols > rows
    if np.any(above):
        i = int(np.flatnonzero(above)[0])
        raise TriangleConventionError(
            f"{what} must lie on or below the diagonal; "
            f"found ({int(rows[i])}, {int(cols[i])}) above it"
        )


# ----------------------------------------------------------------------
# Kernel-operand checks (serial formats)
# ----------------------------------------------------------------------
def check_spmv_args(
    shape: tuple[int, int],
    format_name: str,
    x: np.ndarray,
    y: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Validate/allocate serial SpM×V operands. Returns ``(x, y)``."""
    n_rows, n_cols = shape
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_cols,):
        raise ShapeError(
            f"x has shape {x.shape}, expected ({n_cols},) for "
            f"{format_name} matrix of shape {shape}"
        )
    if y is None:
        y = np.zeros(n_rows, dtype=np.float64)
    else:
        if y.shape != (n_rows,):
            raise ShapeError(f"y has shape {y.shape}, expected ({n_rows},)")
        if y.dtype != np.float64:
            raise DTypeError("y must be float64")
        y[:] = 0.0
    return x, y


def check_spmm_args(
    shape: tuple[int, int],
    format_name: str,
    X: np.ndarray,
    Y: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Validate/allocate serial SpM×M operands. Returns ``(X, Y)``."""
    n_rows, n_cols = shape
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n_cols:
        raise ShapeError(
            f"X has shape {X.shape}, expected ({n_cols}, k) for "
            f"{format_name} matrix of shape {shape}"
        )
    k = X.shape[1]
    if Y is None:
        Y = np.zeros((n_rows, k), dtype=np.float64)
    else:
        if Y.shape != (n_rows, k):
            raise ShapeError(
                f"Y has shape {Y.shape}, expected ({n_rows}, {k})"
            )
        if Y.dtype != np.float64:
            raise DTypeError("Y must be float64")
        Y[:] = 0.0
    return X, Y


# ----------------------------------------------------------------------
# Parallel-driver operand checks
# ----------------------------------------------------------------------
def check_driver_x(x: np.ndarray, n_cols: int) -> np.ndarray:
    """Validate a driver input: a vector ``(n_cols,)`` or a multi-RHS
    block ``(n_cols, k)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1 and x.shape == (n_cols,):
        return x
    if x.ndim == 2 and x.shape[0] == n_cols and x.shape[1] >= 1:
        return x
    raise ShapeError(
        f"x has shape {x.shape}, expected ({n_cols},) or ({n_cols}, k)"
    )


def prepare_driver_y(
    y: Optional[np.ndarray], n_rows: int, x: np.ndarray
) -> np.ndarray:
    """Allocate (or validate and zero) the driver output matching
    ``x``'s 1-D/2-D layout."""
    shape = (n_rows,) if x.ndim == 1 else (n_rows, x.shape[1])
    if y is None:
        return np.zeros(shape, dtype=np.float64)
    if y.shape != shape:
        raise ShapeError(f"y has shape {y.shape}, expected {shape}")
    if y.dtype != np.float64:
        raise DTypeError("y must be float64")
    y[:] = 0.0
    return y


def check_partitions(
    partitions: Sequence[tuple[int, int]], n_rows: int
) -> None:
    """Raise :class:`PartitionError` unless the partitions tile
    ``[0, n_rows)`` contiguously."""
    prev = 0
    for start, end in partitions:
        if start != prev:
            raise PartitionError(
                f"partition gap/overlap at row {prev}: got start {start}"
            )
        if end < start:
            raise PartitionError(f"negative partition ({start}, {end})")
        prev = end
    if prev != n_rows:
        raise PartitionError(
            f"partitions end at {prev}, expected n_rows = {n_rows}"
        )
