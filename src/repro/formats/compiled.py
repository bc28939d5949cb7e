"""Compiled CSR/CSC products on scipy's sparsetools.

The SSS kernels (Alg. 2/3) and the CSR kernels reduce to two loops over
a compressed ``(ptr, ind, values)`` triple: a row-wise gather
(``csr_matvec``) and a column-wise scatter (``csc_matvec``) — the
transposed half of a symmetric product is exactly the CSC reading of
the stored lower triangle. scipy's ``_sparsetools`` runs both in C with
the interpreter lock released, so partitions run concurrently on a
thread pool.

``scipy.sparse._sparsetools`` is private API and this module is its only
importer; ``tests/test_compiled_kernels.py`` pins the contract relied on
here (accumulate into the output, write through views, reject a wrong
output dtype). The routines do **no** bounds checking: every index array
handed in must come from a format constructor that validated it
(:mod:`repro.formats.validate`). Index arrays are int32 and values
float64 everywhere in the formats; a mixed pair would make sparsetools
upcast (copy) on every call.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools as _st

from .validate import ShapeError

__all__ = ["csr_matvec", "csc_matvec"]


def csr_matvec(
    rowptr: np.ndarray,
    colind: np.ndarray,
    values: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> None:
    """``y[i] += values[jj] * x[colind[jj]]`` summed in stored order over
    ``jj ∈ [rowptr[i], rowptr[i+1])``, for every ``i < len(rowptr) - 1``.

    ``rowptr`` may be a slice of a larger row pointer (offsets stay
    absolute into ``colind``/``values``), so a row range needs no
    rebasing. ``x``/``y`` are vectors or ``(n, k)`` blocks; the block
    form applies the same per-row order to every column, so column
    ``j`` is bit-identical to the vector product of column ``j``.
    ``y`` must hold exactly the row range; the caller guarantees that
    every ``colind`` entry indexes ``x``.
    """
    n_row = rowptr.shape[0] - 1
    if y.shape[0] != n_row or x.shape[1:] != y.shape[1:]:
        raise ShapeError(
            f"csr_matvec over {n_row} rows got x {x.shape}, y {y.shape}"
        )
    if x.ndim == 1:
        _st.csr_matvec(n_row, x.shape[0], rowptr, colind, values, x, y)
    else:
        _st.csr_matvecs(
            n_row, x.shape[0], x.shape[1], rowptr, colind, values, x, y
        )


def csc_matvec(
    colptr: np.ndarray,
    rowind: np.ndarray,
    values: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> None:
    """``y[rowind[ii]] += values[ii] * x[j]`` for every column
    ``j < len(colptr) - 1`` and ``ii ∈ [colptr[j], colptr[j+1])``, in
    stored order. ``x`` must hold exactly the column range; the caller
    guarantees that every ``rowind`` entry indexes ``y``."""
    n_col = colptr.shape[0] - 1
    if x.shape[0] != n_col or x.shape[1:] != y.shape[1:]:
        raise ShapeError(
            f"csc_matvec over {n_col} columns got x {x.shape}, y {y.shape}"
        )
    if x.ndim == 1:
        _st.csc_matvec(y.shape[0], n_col, colptr, rowind, values, x, y)
    else:
        _st.csc_matvecs(
            y.shape[0], n_col, x.shape[1], colptr, rowind, values, x, y
        )
