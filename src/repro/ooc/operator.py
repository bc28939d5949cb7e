"""Shard-at-a-time symmetric SpMV/SpMM under an explicit memory budget.

A :class:`ShardedOperator` applies a matrix that never fits in memory
by streaming its row-range shards (:mod:`repro.ooc.shards`) through a
small pinned-LRU of resident shards. Each resident shard is wrapped in
a global-shape :class:`~repro.formats.sss.SSSMatrix` — the diagonal
and row-pointer arrays are full length with only the shard's row range
populated (an O(N) per-shard index overhead, documented and excluded
from the *payload* budget, which counts the bytes the manifest records
per shard file) — and driven by the existing
:class:`~repro.parallel.spmv.ParallelSymmetricSpMV`: same partition
kernels, same local-vector reductions, same
:class:`~repro.parallel.executor.Executor` backends as the in-core
path. Off-shard transposed contributions (columns left of the shard's
row range) land in the reduction's local vectors exactly as they do
for an in-core thread partition.

Determinism: ``y`` accumulates shard results in fixed ascending shard
order, and each per-shard driver is built with a fixed partition
layout, so two applies of the same store with the same configuration
are bit-identical — including an apply that reloaded every shard from
disk against one that had them all cached. That is the property the
checkpoint/resume solver relies on.

Counters (under the active tracer, when enabled): ``ooc.shards_loaded``
and ``ooc.shard_hits`` split cold and warm shard accesses,
``ooc.shard_evictions`` counts budget-forced drops, and the
``ooc.resident_bytes`` / ``ooc.resident_bytes_peak`` gauges expose the
payload residency the smoke test asserts against the budget.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence, Union

import numpy as np

from ..formats.sss import SSSMatrix
from ..obs.tracer import active as _active_tracer
from ..parallel.executor import Executor
from ..parallel.partition import partition_nnz_balanced
from ..parallel.spmv import ParallelSymmetricSpMV
from .errors import MemoryBudgetError
from .shards import ShardData, ShardStore

__all__ = ["ShardedOperator", "parse_memory_budget"]

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_memory_budget(text: Union[str, int, None]) -> Optional[int]:
    """``"64K"``/``"8M"``/``"1G"``/``"123"`` -> bytes (``None`` passes
    through: unlimited)."""
    if text is None or isinstance(text, int):
        return text
    s = str(text).strip().lower()
    if not s:
        raise ValueError("empty memory budget")
    scale = 1
    if s[-1] in _SUFFIXES:
        scale = _SUFFIXES[s[-1]]
        s = s[:-1]
    try:
        value = int(s)
    except ValueError:
        raise ValueError(f"unparseable memory budget {text!r}") from None
    if value <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return value * scale


class _Resident:
    """One cached shard: its driver and its budget-accounted bytes."""

    __slots__ = ("driver", "n_bytes")

    def __init__(self, driver: ParallelSymmetricSpMV, n_bytes: int):
        self.driver = driver
        self.n_bytes = n_bytes


class ShardedOperator:
    """``y = A @ x`` (or ``A @ X`` for a block of right-hand sides)
    over an ingested shard set, shard at a time.

    Parameters
    ----------
    store : ShardStore
        Verified shard access (carries the chaos plan and retry
        policy).
    memory_budget : int or str, optional
        Maximum resident shard-payload bytes (``"8M"``-style suffixes
        accepted). ``None`` keeps every shard resident after first
        touch. A budget smaller than the largest single shard is
        rejected up front with :class:`MemoryBudgetError` — no
        configuration can satisfy it.
    n_threads : int
        Partitions per shard for the parallel driver.
    reduction : str
        Reduction method for the per-shard symmetric driver.
    executor : Executor, optional
        Shared by every per-shard driver (serial default).
    """

    def __init__(
        self,
        store: ShardStore,
        *,
        memory_budget: Union[int, str, None] = None,
        n_threads: int = 1,
        reduction: str = "indexed",
        executor: Optional[Executor] = None,
    ):
        if store.n_rows != store.n_cols:
            raise MemoryBudgetError(
                f"sharded operator requires a square symmetric matrix, "
                f"got shape {store.shape}"
            )
        self.store = store
        self.memory_budget = parse_memory_budget(memory_budget)
        self.n_threads = int(n_threads)
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.reduction = reduction
        self.executor = executor or Executor("serial")
        largest = max(
            (info.n_bytes for info in store.shards), default=0
        )
        if self.memory_budget is not None and largest > self.memory_budget:
            raise MemoryBudgetError(
                f"memory budget {self.memory_budget} B cannot hold the "
                f"largest shard ({largest} B); re-ingest with smaller "
                f"shards or raise the budget"
            )
        self._resident: "OrderedDict[int, _Resident]" = OrderedDict()
        self.resident_bytes = 0
        self.peak_resident_bytes = 0

    # -- shard cache ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.store.shape

    @property
    def n_rows(self) -> int:
        return self.store.n_rows

    def _build_driver(self, data: ShardData) -> ParallelSymmetricSpMV:
        """Wrap one shard in a global-shape SSS matrix + parallel
        driver. Rows outside the shard's range carry no entries; the
        partitions cover [0, N) with the shard's rows split
        nnz-balanced across ``n_threads`` and (possibly empty) edge
        partitions for the rest."""
        n = self.store.n_rows
        s, e = data.row_start, data.row_end
        dvalues = np.zeros(n, dtype=np.float64)
        dvalues[s:e] = data.dvalues
        rowptr = np.zeros(n + 1, dtype=np.int64)
        rowptr[s: e + 1] = data.rowptr
        rowptr[e + 1:] = data.rowptr[-1]
        matrix = SSSMatrix(
            (n, n), dvalues, rowptr, data.colind, data.values
        )
        weights = np.diff(data.rowptr) + 1
        cuts = partition_nnz_balanced(weights, self.n_threads)
        partitions: list[tuple[int, int]] = []
        if s > 0:
            partitions.append((0, s))
        partitions.extend((s + ls, s + le) for ls, le in cuts)
        if e < n:
            partitions.append((e, n))
        return ParallelSymmetricSpMV(
            matrix, partitions, self.reduction, executor=self.executor
        )

    def _evict_until(self, incoming: int, pinned: Optional[int]) -> None:
        if self.memory_budget is None:
            return
        tracer = _active_tracer()
        while (
            self.resident_bytes + incoming > self.memory_budget
            and self._resident
        ):
            # LRU order; never evict the pinned (in-use) shard.
            victim = next(
                (i for i in self._resident if i != pinned), None
            )
            if victim is None:
                break
            entry = self._resident.pop(victim)
            entry.driver.close()
            self.resident_bytes -= entry.n_bytes
            if tracer.enabled:
                tracer.metrics.counter("ooc.shard_evictions").inc()

    def _driver(self, index: int) -> ParallelSymmetricSpMV:
        tracer = _active_tracer()
        entry = self._resident.get(index)
        if entry is not None:
            self._resident.move_to_end(index)
            if tracer.enabled:
                tracer.metrics.counter("ooc.shard_hits").inc()
            return entry.driver
        info = self.store.shards[index]
        self._evict_until(info.n_bytes, pinned=None)
        data = self.store.load(index)
        entry = _Resident(self._build_driver(data), data.n_bytes)
        self._resident[index] = entry
        self.resident_bytes += entry.n_bytes
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes
        )
        if tracer.enabled:
            tracer.metrics.counter("ooc.shards_loaded").inc()
            tracer.metrics.gauge("ooc.resident_bytes").set(
                self.resident_bytes
            )
            tracer.metrics.gauge("ooc.resident_bytes_peak").set(
                self.peak_resident_bytes
            )
        return entry.driver

    # -- application ----------------------------------------------------
    def __call__(
        self, x: np.ndarray, y: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``y = A @ x`` streamed over shards in ascending order.

        ``x`` may be ``(n,)`` or ``(n, k)``; the per-shard drivers run
        the matching SpMV/SpMM partition kernels.
        """
        x = np.ascontiguousarray(
            x, dtype=np.float64
        )
        if x.shape[0] != self.store.n_cols:
            raise ValueError(
                f"x has leading dimension {x.shape[0]}, matrix has "
                f"{self.store.n_cols} columns"
            )
        tracer = _active_tracer()
        total = np.zeros_like(x) if y is None else y
        if total.shape != x.shape:
            raise ValueError(
                f"y has shape {total.shape}, expected {x.shape}"
            )
        total[...] = 0.0
        k = x.shape[1] if x.ndim == 2 else None
        with tracer.span("ooc.apply", shards=self.store.n_shards):
            for index in range(self.store.n_shards):
                op = self._driver(index).operator(k)
                # Fixed ascending accumulation order: bit-identical
                # across cache states and repeat applies.
                total += op(x)
        if tracer.enabled:
            tracer.metrics.counter("ooc.applies").inc()
        return total

    def diagonal(self) -> np.ndarray:
        """Assembled main diagonal (for Jacobi preconditioning); goes
        through the verified, fault-contained store reads."""
        return self.store.diagonal()

    def close(self) -> None:
        """Drop every resident shard and close its driver."""
        for entry in self._resident.values():
            entry.driver.close()
        self._resident.clear()
        self.resident_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = (
            "unbounded" if self.memory_budget is None
            else f"{self.memory_budget}B"
        )
        return (
            f"<ShardedOperator n={self.store.n_rows} "
            f"shards={self.store.n_shards} budget={budget} "
            f"resident={self.resident_bytes}B>"
        )
