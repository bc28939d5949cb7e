"""The three local-vector reduction methods of Section III.

Multithreaded symmetric SpM×V writes transposed contributions into
per-thread local vectors; the methods differ in how much of those
vectors the final reduction phase must touch:

* :class:`NaiveReduction` — every thread owns a full-length local
  vector, all of it reduced (Fig. 3b, eq. 3: ``ws = 8pN``).
* :class:`EffectiveRangesReduction` — Batista et al.'s scheme: thread
  ``i`` writes rows ``[start_i, end_i)`` straight into the output and
  only the *effective region* ``[0, start_i)`` of its local vector is
  reduced (Fig. 3c, eq. 4: ``ws ≈ 4(p-1)N``).
* :class:`IndexedReduction` — the paper's contribution: a ``(vid, idx)``
  index enumerates the non-zero local-vector elements so the reduction
  touches only genuinely conflicting entries (Fig. 3d, eqs. 5-6:
  ``ws ≈ 8(p-1)N·d`` with ``d`` the effective-region density).

All methods are observationally equivalent (same final output vector);
property tests assert this. Each also exposes its working-set footprint,
both the closed-form paper equation and the exact measured counterpart,
which the machine model converts into reduction-phase time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..formats.base import SymmetricFormat

__all__ = [
    "ReductionMethod",
    "NaiveReduction",
    "EffectiveRangesReduction",
    "IndexedReduction",
    "ColoringReduction",
    "ReductionFootprint",
    "REDUCTION_METHODS",
    "make_reduction",
]

#: Bytes per double-precision vector element.
_F8 = 8
#: Bytes per (vid, idx) index pair — the paper uses 4 + 4 (Section III-C).
INDEX_PAIR_BYTES = 8


@dataclass
class ReductionFootprint:
    """Memory footprint of one reduction configuration.

    ``ws_model_bytes`` is the paper's closed-form equation;
    ``ws_measured_bytes`` is computed from the actual data structures.
    ``reduction_reads/writes`` count the vector elements the reduction
    phase itself streams (inputs to the machine model).
    """

    method: str
    n_threads: int
    n_rows: int
    ws_model_bytes: float
    ws_measured_bytes: float
    reduction_reads: int
    reduction_writes: int
    index_pairs: int = 0
    effective_density: float = float("nan")
    #: Right-hand sides per matrix pass (k of the SpM×M generalization:
    #: local buffers become (p, N, k); the float terms of eqs. 3-6 scale
    #: by k while the (vid, idx) index is shared by all k columns).
    n_rhs: int = 1


class ReductionMethod(abc.ABC):
    """A local-vectors strategy bound to one (matrix, partitions) pair."""

    name: str = "abstract"

    #: True for strategies that eliminate write conflicts by *scheduling*
    #: (color classes with barriers, direct output writes) instead of by
    #: local vectors. Drivers and bound operators branch on this: the
    #: multiplication phase runs the strategy's barrier-stepped schedule
    #: and the reduction phase disappears.
    conflict_free: bool = False

    def __init__(
        self,
        matrix: SymmetricFormat,
        partitions: Sequence[tuple[int, int]],
    ):
        self.matrix = matrix
        self.partitions = [(int(s), int(e)) for s, e in partitions]
        self.n_threads = len(self.partitions)
        self.n_rows = matrix.n_rows
        self._prepare()

    def _prepare(self) -> None:
        """Hook for per-method preprocessing (index construction)."""

    def _local_shape(self, k: Optional[int]) -> tuple[int, ...]:
        """Local-buffer shape: ``(N,)`` for the 1-D SpM×V case
        (``k is None``), or ``(N, k)`` for a k-column SpM×M pass —
        including ``k = 1``, so a 2-D pass always sees 2-D buffers. The
        ``(vid, idx)`` structure is unchanged — indices select rows of
        the buffer."""
        if k is None:
            return (self.n_rows,)
        if k < 1:
            raise ValueError(f"need at least one right-hand side, got k={k}")
        return (self.n_rows, k)

    # -- multiplication-phase wiring -----------------------------------
    @abc.abstractmethod
    def allocate_locals(
        self, k: Optional[int] = None
    ) -> list[Optional[np.ndarray]]:
        """One local buffer per thread (``None`` where a thread writes
        directly and needs no local vector). ``k = None`` allocates the
        1-D SpM×V vectors; an integer ``k`` allocates ``(N, k)``
        buffers for a multi-RHS pass."""

    @abc.abstractmethod
    def thread_targets(
        self, tid: int, y: np.ndarray, locals_: list[Optional[np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(y_direct, y_local)`` for thread ``tid``'s
        :meth:`~repro.formats.base.SymmetricFormat.spmv_partition` call."""

    def zero_locals(self, locals_: list[Optional[np.ndarray]]) -> None:
        """Reset persistent local buffers in place between bound
        iterations.

        Only the regions the multiplication phase writes (and the
        reduction reads) need zeroing, so each method clears exactly its
        own effective region — the amortized counterpart of re-allocating
        fresh buffers every call. Default: full-length clear (naive).
        """
        for buf in locals_:
            if buf is not None:
                buf[...] = 0.0

    def zeroed_elements(self, k: Optional[int] = None) -> int:
        """Local-buffer elements :meth:`zero_locals` clears per call —
        the workspace-zero volume the ``bound.zeroed_elements`` counter
        reports. Default matches the full-length clear (naive)."""
        per_buf = self.n_rows * (k or 1)
        return sum(1 for s, _ in self.partitions if self._has_local(s)) \
            * per_buf

    def _has_local(self, start: int) -> bool:
        """Whether a partition starting at ``start`` owns a local
        buffer (naive: always; effective/indexed: only when the
        effective region is non-empty)."""
        return True

    # -- reduction phase ------------------------------------------------
    @abc.abstractmethod
    def reduce(
        self, y: np.ndarray, locals_: list[Optional[np.ndarray]]
    ) -> None:
        """Fold the local buffers into ``y``. Works identically for 1-D
        vectors and ``(N, k)`` blocks: every operation indexes axis 0."""

    @abc.abstractmethod
    def footprint(self, k: int = 1) -> ReductionFootprint:
        """Working-set accounting for this configuration with ``k``
        right-hand sides per pass (``k = 1`` is the paper's case)."""

    # -- parallel reduction structure ------------------------------------
    def reduction_splits(self, n_chunks: int) -> list[tuple[int, int]]:
        """Row ranges assigned to each reducer thread.

        Default: equal row split of the output vector (Alg. 3 lines
        12-16). The indexing method overrides this to split its sorted
        index stream instead.
        """
        bounds = np.linspace(0, self.n_rows, n_chunks + 1).round().astype(int)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_chunks)]


class NaiveReduction(ReductionMethod):
    """Full-length local vector per thread, full-range reduction."""

    name = "naive"

    def allocate_locals(
        self, k: Optional[int] = None
    ) -> list[Optional[np.ndarray]]:
        return [
            np.zeros(self._local_shape(k), dtype=np.float64)
            for _ in range(self.n_threads)
        ]

    def thread_targets(self, tid, y, locals_):
        # Everything — own rows included — goes to the local vector.
        buf = locals_[tid]
        return buf, buf

    def reduce(self, y, locals_):
        for buf in locals_:
            y += buf

    def footprint(self, k: int = 1) -> ReductionFootprint:
        p, n = self.n_threads, self.n_rows
        ws = float(_F8 * p * n * k)  # eq. (3), ×k columns
        return ReductionFootprint(
            method=self.name,
            n_threads=p,
            n_rows=n,
            ws_model_bytes=ws,
            ws_measured_bytes=ws,
            reduction_reads=p * n * k,
            reduction_writes=n * k,
            n_rhs=k,
        )


class EffectiveRangesReduction(ReductionMethod):
    """Local writes only below ``start_i``; direct writes elsewhere."""

    name = "effective"

    def allocate_locals(
        self, k: Optional[int] = None
    ) -> list[Optional[np.ndarray]]:
        # Thread 0 has an empty effective region: no local vector.
        # Buffers are full-length for indexing simplicity; only
        # [0, start_i) is ever touched, and only that range is counted.
        out: list[Optional[np.ndarray]] = []
        shape = self._local_shape(k)
        for start, _ in self.partitions:
            out.append(
                np.zeros(shape, dtype=np.float64) if start > 0 else None
            )
        return out

    def thread_targets(self, tid, y, locals_):
        local = locals_[tid]
        return y, (local if local is not None else y)

    def zero_locals(self, locals_: list[Optional[np.ndarray]]) -> None:
        # Writes only ever land in [0, start_i) — clear just that.
        for (start, _), buf in zip(self.partitions, locals_):
            if buf is not None and start > 0:
                buf[:start] = 0.0

    def zeroed_elements(self, k: Optional[int] = None) -> int:
        return sum(start for start, _ in self.partitions) * (k or 1)

    def _has_local(self, start: int) -> bool:
        return start > 0

    def reduce(self, y, locals_):
        for (start, _), buf in zip(self.partitions, locals_):
            if buf is not None and start > 0:
                y[:start] += buf[:start]

    def footprint(self, k: int = 1) -> ReductionFootprint:
        p, n = self.n_threads, self.n_rows
        sum_starts = sum(start for start, _ in self.partitions)
        ws_measured = float(_F8 * sum_starts * k)
        ws_model = 4.0 * (p - 1) * n * k  # eq. (4), ×k columns
        return ReductionFootprint(
            method=self.name,
            n_threads=p,
            n_rows=n,
            ws_model_bytes=ws_model,
            ws_measured_bytes=ws_measured,
            reduction_reads=sum_starts * k,
            reduction_writes=n * k,
            n_rhs=k,
        )


class IndexedReduction(ReductionMethod):
    """The paper's local-vectors indexing scheme (Section III-C).

    At preparation time the conflicting output rows of every partition
    are enumerated into ``(vid, idx)`` pairs sorted by ``idx`` — this is
    the index whose size (``INDEX_PAIR_BYTES`` each) plus touched local
    elements constitute eq. (5). The reduction visits only those pairs.
    """

    name = "indexed"

    def _prepare(self) -> None:
        vids: list[np.ndarray] = []
        idxs: list[np.ndarray] = []
        self._per_thread_conflicts: list[np.ndarray] = []
        for tid, (start, end) in enumerate(self.partitions):
            conflicts = self.matrix.partition_conflict_rows(start, end)
            self._per_thread_conflicts.append(conflicts)
            if conflicts.size:
                vids.append(np.full(conflicts.size, tid, dtype=np.int32))
                idxs.append(conflicts.astype(np.int32))
        if idxs:
            vid = np.concatenate(vids)
            idx = np.concatenate(idxs)
            order = np.argsort(idx, kind="stable")
            self.index_vid = vid[order]
            self.index_idx = idx[order]
        else:
            self.index_vid = np.zeros(0, dtype=np.int32)
            self.index_idx = np.zeros(0, dtype=np.int32)

    @property
    def n_pairs(self) -> int:
        return int(self.index_idx.size)

    def allocate_locals(
        self, k: Optional[int] = None
    ) -> list[Optional[np.ndarray]]:
        out: list[Optional[np.ndarray]] = []
        shape = self._local_shape(k)
        for start, _ in self.partitions:
            out.append(
                np.zeros(shape, dtype=np.float64) if start > 0 else None
            )
        return out

    def thread_targets(self, tid, y, locals_):
        local = locals_[tid]
        return y, (local if local is not None else y)

    def zero_locals(self, locals_: list[Optional[np.ndarray]]) -> None:
        # The index enumerates every row the multiplication phase can
        # write (= every row the reduction reads), so clearing just the
        # conflicting rows restores a pristine local vector.
        for conflicts, buf in zip(self._per_thread_conflicts, locals_):
            if buf is not None and conflicts.size:
                buf[conflicts] = 0.0

    def zeroed_elements(self, k: Optional[int] = None) -> int:
        return self.n_pairs * (k or 1)

    def _has_local(self, start: int) -> bool:
        return start > 0

    def reduce(self, y, locals_):
        # Grouped by vid (addition commutes, result identical to pair
        # order); each group is one vectorized gather-accumulate.
        for tid, conflicts in enumerate(self._per_thread_conflicts):
            if conflicts.size:
                buf = locals_[tid]
                y[conflicts] += buf[conflicts]

    def reduction_splits(self, n_chunks: int) -> list[tuple[int, int]]:
        """Split the sorted index into ``n_chunks`` contiguous slices
        such that no ``idx`` value is shared between two slices (the
        independence restriction of Section III-C)."""
        m = self.n_pairs
        if m == 0:
            return [(0, 0)] * n_chunks
        targets = (m * np.arange(1, n_chunks)) // n_chunks
        cuts = []
        for t in targets:
            c = int(t)
            # Move the cut forward until the idx value changes.
            while 0 < c < m and self.index_idx[c] == self.index_idx[c - 1]:
                c += 1
            cuts.append(c)
        bounds = [0] + cuts + [m]
        bounds = list(np.maximum.accumulate(bounds))
        return [(bounds[i], bounds[i + 1]) for i in range(n_chunks)]

    def effective_density(self) -> float:
        """Measured density ``d`` of the effective regions: indexed
        pairs over total effective-region length (Fig. 4's metric)."""
        sum_starts = sum(start for start, _ in self.partitions)
        if sum_starts == 0:
            return 0.0
        return self.n_pairs / sum_starts

    def footprint(self, k: int = 1) -> ReductionFootprint:
        p, n = self.n_threads, self.n_rows
        d = self.effective_density()
        # eq. (5): touched local elements (×k columns) + the index
        # itself — the (vid, idx) pairs are shared by all k columns.
        ws_model = (
            4.0 * (p - 1) * n * d * k
            + INDEX_PAIR_BYTES * (p - 1) * n * d / 2
        )
        ws_measured = float(
            _F8 * self.n_pairs * k + INDEX_PAIR_BYTES * self.n_pairs
        )
        return ReductionFootprint(
            method=self.name,
            n_threads=p,
            n_rows=n,
            ws_model_bytes=ws_model,
            ws_measured_bytes=ws_measured,
            reduction_reads=(1 + k) * self.n_pairs,  # pair + k elements
            reduction_writes=self.n_pairs * k,
            index_pairs=self.n_pairs,
            effective_density=d,
            n_rhs=k,
        )


class ColoringReduction(ReductionMethod):
    """Conflict-free scheduling in a reduction method's clothes (the
    RACE direction named by ROADMAP item 3).

    A distance-2 coloring guarantees that rows of one color class write
    disjoint output elements, so every thread writes ``y`` directly and
    there is *nothing to reduce*: no local vectors are allocated
    (``allocate_locals`` returns all ``None``), :meth:`zero_locals` and
    :meth:`reduce` are no-ops, and the footprint reports zero
    reduction-phase traffic. What replaces them is the precompiled
    :class:`~repro.parallel.coloring.ColoringSchedule` — color classes
    split into nnz-balanced row batches, executed class-at-a-time with a
    barrier between classes — which the bound operators detect
    via :attr:`conflict_free` and run through
    :func:`~repro.parallel.coloring.run_colored_steps`.

    The cost moves from reduction traffic to barriers and a scattered
    (color-ordered) matrix stream; the machine model accounts both
    (:func:`repro.machine.predict_spmv` adds a ``t_barrier`` term).
    """

    name = "coloring"
    conflict_free = True

    def _prepare(self) -> None:
        from .coloring import build_coloring_schedule  # lazy: avoids cycle

        # Raises ColoringUnsupportedError (a ValueError) for formats
        # without a lower-triangle CSR view (e.g. CSB-Sym).
        self.schedule = build_coloring_schedule(self.matrix, self.n_threads)

    def allocate_locals(
        self, k: Optional[int] = None
    ) -> list[Optional[np.ndarray]]:
        self._local_shape(k)  # validate k
        return [None] * self.n_threads

    def thread_targets(self, tid, y, locals_):
        # Unused in the conflict-free path (the schedule's tasks write y
        # directly), but keep the contract total: direct everywhere.
        return y, y

    def zero_locals(self, locals_: list[Optional[np.ndarray]]) -> None:
        pass

    def zeroed_elements(self, k: Optional[int] = None) -> int:
        return 0

    def _has_local(self, start: int) -> bool:
        return False

    def reduce(self, y, locals_):
        pass

    def reduction_splits(self, n_chunks: int) -> list[tuple[int, int]]:
        # No reduction phase to split.
        return [(0, 0)] * n_chunks

    def footprint(self, k: int = 1) -> ReductionFootprint:
        return ReductionFootprint(
            method=self.name,
            n_threads=self.n_threads,
            n_rows=self.n_rows,
            ws_model_bytes=0.0,
            ws_measured_bytes=0.0,
            reduction_reads=0,
            reduction_writes=0,
            n_rhs=k,
        )

    @property
    def schedule_bytes(self) -> int:
        """Precomputed schedule footprint (not reduction working set —
        it streams in place of the CSR structure during multiply)."""
        return self.schedule.index_bytes


REDUCTION_METHODS = {
    cls.name: cls
    for cls in (
        NaiveReduction,
        EffectiveRangesReduction,
        IndexedReduction,
        ColoringReduction,
    )
}


def make_reduction(
    name: str,
    matrix: SymmetricFormat,
    partitions: Sequence[tuple[int, int]],
) -> ReductionMethod:
    """Factory: ``name`` in {"naive", "effective", "indexed",
    "coloring"}."""
    try:
        cls = REDUCTION_METHODS[name]
    except KeyError:
        raise ValueError(
            f"unknown reduction method {name!r}; "
            f"choose from {sorted(REDUCTION_METHODS)}"
        ) from None
    return cls(matrix, partitions)
