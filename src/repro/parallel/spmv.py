"""Multithreaded SpM×V orchestration (paper Alg. 3 and Section III).

:class:`ParallelSymmetricSpMV` wires a symmetric format (SSS or
CSX-Sym), a thread partitioning and a reduction method into the
two-phase kernel: per-thread multiplication into direct/local targets,
then the reduction of local vectors into the output.

:class:`ParallelSpMV` is the unsymmetric counterpart (CSR / CSX): rows
are independent, so there is no reduction phase at all.

Both drivers have one execution path: the
:class:`~repro.parallel.bound.BoundOperator`. ``driver(x, y)``
validates its operands and applies ``driver.operator(k)`` — the
driver's own bound operator for that right-hand-side width, bound on
first use and cached — into ``y`` or a fresh array. ``driver.close()``
(or ``with driver:``) releases the cached operators.
``driver.bind(k)`` still returns a new, caller-owned operator.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

import numpy as np

from ..formats.base import SymmetricFormat
from ..formats.csr import CSRMatrix
from ..formats.csx.matrix import CSXMatrix
from ..formats.validate import check_driver_x, prepare_driver_y
from .bound import BoundOperator, BoundSpMV, BoundSymmetricSpMV
from .executor import Executor
from .partition import validate_partitions
from .reduction import ReductionFootprint, ReductionMethod, make_reduction

__all__ = ["ParallelSymmetricSpMV", "ParallelSpMV"]


class _Driver:
    """Shared driver surface: the per-``k`` cache of owned bound
    operators and the apply-through-it ``__call__``."""

    def __init__(self, matrix, partitions, executor: Optional[Executor]):
        validate_partitions(partitions, matrix.n_rows)
        self.matrix = matrix
        self.partitions = [(int(s), int(e)) for s, e in partitions]
        self.executor = executor or Executor("serial")
        self._ops: dict[Optional[int], BoundOperator] = {}
        self._ops_lock = threading.Lock()

    @property
    def n_threads(self) -> int:
        return len(self.partitions)

    def operator(self, k: Optional[int] = None) -> BoundOperator:
        """The driver's own bound operator for ``k`` right-hand sides
        (``None`` = 1-D SpM×V): bound on first use, cached until
        :meth:`close` (a closed one is re-bound). It serializes its own
        applies, so every caller shares it; its returned workspace is
        valid only until the next apply from any thread."""
        op = self._ops.get(k)  # lock-free hit: dict.get is atomic
        if op is None or op.closed:
            with self._ops_lock:
                op = self._ops.get(k)
                if op is None or op.closed:
                    op = self.bind(k)
                    op._owned = True
                    self._ops[k] = op
        return op

    def __call__(
        self, x: np.ndarray, y: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute ``y = A @ x`` with the configured thread layout.

        ``x`` may be a vector ``(n,)`` or a block of ``k`` right-hand
        sides ``(n, k)``; the 2-D case runs the multi-RHS kernels (one
        matrix traversal for all columns). The result lands in ``y``
        (returned) or in a fresh array the caller owns.
        """
        x = check_driver_x(x, self.matrix.n_cols)
        y = prepare_driver_y(y, self.matrix.n_rows, x)
        k = x.shape[1] if x.ndim == 2 else None
        return self.operator(k)(x, out=y)

    def close(self) -> None:
        """Close every cached bound operator. Idempotent; a later call
        binds afresh."""
        with self._ops_lock:
            ops, self._ops = list(self._ops.values()), {}
        for op in ops:
            op.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ParallelSymmetricSpMV(_Driver):
    """Two-phase multithreaded symmetric SpM×V.

    Parameters
    ----------
    matrix : SymmetricFormat
        SSS or CSX-Sym matrix. For CSX-Sym the partitions must match
        the ones the matrix was preprocessed for.
    partitions : sequence of (row_start, row_end)
    reduction : str or ReductionMethod
        ``"naive"``, ``"effective"`` or ``"indexed"`` (Section III), or
        ``"coloring"`` (conflict-free scheduling, no reduction phase),
        or a prebuilt method instance.
    executor : Executor, optional
    """

    def __init__(
        self,
        matrix: SymmetricFormat,
        partitions: Sequence[tuple[int, int]],
        reduction: Union[str, ReductionMethod] = "indexed",
        executor: Optional[Executor] = None,
    ):
        super().__init__(matrix, partitions, executor)
        if isinstance(reduction, str):
            reduction = make_reduction(reduction, matrix, self.partitions)
        self.reduction = reduction

    def bind(self, k: Optional[int] = None, on_poison: str = "recover"):
        """Return a new :class:`~repro.parallel.bound.BoundSymmetricSpMV`
        the caller owns: persistent workspaces, precompiled tasks and
        scatters, for repeated application with this signature
        (``k=None`` = 1-D SpM×V, integer ``k`` = ``(N, k)`` SpM×M).
        ``on_poison`` selects the failed-apply policy (see
        :class:`~repro.parallel.bound.BoundOperator`)."""
        return BoundSymmetricSpMV(self, k, on_poison=on_poison)

    def footprint(self, k: int = 1) -> ReductionFootprint:
        """Working-set accounting of the configured reduction (``k``
        right-hand sides per pass)."""
        return self.reduction.footprint(k)


class ParallelSpMV(_Driver):
    """Row-partitioned multithreaded *unsymmetric* SpM×V (CSR / CSX).

    Output rows are exclusive to their thread, so phase 2 is empty —
    the baseline the symmetric kernels are compared against.
    """

    def __init__(
        self,
        matrix: Union[CSRMatrix, CSXMatrix],
        partitions: Sequence[tuple[int, int]],
        executor: Optional[Executor] = None,
    ):
        super().__init__(matrix, partitions, executor)
        if isinstance(matrix, CSXMatrix):
            want = [(p.row_start, p.row_end) for p in matrix.partitions]
            if want != self.partitions:
                raise ValueError(
                    "CSX matrix was preprocessed for different partitions"
                )

    def bind(self, k: Optional[int] = None, on_poison: str = "recover"):
        """Return a new :class:`~repro.parallel.bound.BoundSpMV` the
        caller owns, with persistent output workspace and precompiled
        tasks for repeated application with this signature;
        ``on_poison`` selects the failed-apply policy."""
        return BoundSpMV(self, k, on_poison=on_poison)
