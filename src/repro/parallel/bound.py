"""Bound operators: persistent SpM×V / SpM×M execution plans.

Iterative solvers apply the same operator hundreds of times (CG,
Fig. 14). This module is the repo's OSKI-style answer (Akbudak et al.;
RACE's precomputed execution schedules) and the drivers' only
execution path: binding builds the per-thread task closures with their
partition kernels, the ``(p, N[, k])`` local buffers and the output
workspace *once*; a :class:`BoundOperator`'s
``__call__`` then only zeroes workspaces in place and runs the
precompiled tasks. ``driver(x)`` applies the driver's own cached
operator (``driver.operator(k)``); ``driver.bind(k)`` returns a new
one the caller owns and closes.

Binding is signature-specific: ``k=None`` binds the 1-D SpM×V path,
an integer ``k`` binds the ``(N, k)`` multi-RHS path. The returned
array is the operator's private workspace — valid until the next call;
copy it (or pass ``out=``) to keep a result.
"""

from __future__ import annotations

import threading
import warnings
from time import perf_counter_ns
from typing import Optional

import numpy as np

from ..obs.tracer import active as _active_tracer, warn as _obs_warn
from ..resilience.errors import OperatorClosedError, PoisonedOperatorError

__all__ = ["BoundOperator", "BoundSymmetricSpMV", "BoundSpMV"]

_POISON_POLICIES = ("recover", "raise")


def _record_traffic(tracer, matrix, k: Optional[int], reduction=None) -> int:
    """Model-relevant traffic counters for one application: matrix and
    stream bytes from the :mod:`repro.analysis.traffic` model and (for
    symmetric drivers) the reduction rows actually touched vs the full
    effective-ranges budget ``N·(p-1)``. Only called when a tracer is
    enabled, so the analysis import stays off the cold-start path (and
    avoids a module-level cycle: analysis imports parallel). Returns
    the stream bytes for the ``op.traffic_bytes`` histogram."""
    from ..analysis.traffic import spmm_stream_bytes, spmv_stream_bytes

    size = matrix.size_bytes()
    if k is None:
        stream = spmv_stream_bytes(size, matrix.n_rows, matrix.n_cols)
    else:
        stream = spmm_stream_bytes(size, matrix.n_rows, matrix.n_cols, k)
    m = tracer.metrics
    m.counter("traffic.matrix_bytes").inc(size)
    m.counter("traffic.stream_bytes").inc(stream)
    if reduction is not None:
        fp = reduction.footprint(k or 1)
        m.counter("reduce.rows_touched").inc(fp.reduction_reads)
        m.counter("reduce.rows_budget").inc(
            reduction.n_rows * max(0, reduction.n_threads - 1) * (k or 1)
        )
        if getattr(reduction, "conflict_free", False):
            sched = reduction.schedule
            m.counter("coloring.classes").inc(sched.n_colors)
            # One rendezvous per barrier-separated step; small classes
            # are merged into serial steps, so this can be below the
            # class count.
            m.counter("coloring.barrier_waits").inc(sched.n_barriers)
    return stream


class BoundOperator:
    """Reusable execution plan for repeated ``y = A @ x`` products.

    Created through ``driver.bind(k)`` (caller-owned) or
    ``driver.operator(k)`` (owned and cached by the driver) — not
    directly. At bind time the operator

    (a) precompiles the per-thread task list (closures are built once,
        reading the input slot set by each call),
    (b) allocates persistent output/local workspaces that are zeroed in
        place instead of re-allocated per call, and
    (c) builds each partition's kernel plan (SSS: the local/direct
        split; CSX: the compiled scatters and flattened ``k``-RHS
        indices) so the first timed iteration is not a compilation run.

    Concurrency: the operator owns *one* set of persistent workspaces,
    so applications are inherently non-reentrant — two interleaved
    applies would zero and accumulate into the same ``y``/locals and
    both return corrupt numerics. ``__call__`` therefore serializes
    under an internal lock (chosen over a typed ``OperatorBusyError``:
    blocking preserves the drop-in callable contract — every caller
    still gets the bit-identical result it would have gotten alone,
    just later — whereas a busy error would force retry loops into
    every solver). ``recover()`` and ``close()`` take the same lock, so
    neither can tear workspaces out from under an in-flight apply. The
    returned workspace view is only guaranteed until the next apply
    from *any* thread — concurrent callers must pass ``out=`` (or copy
    under their own coordination) to keep a result.

    Parameters
    ----------
    driver : ParallelSymmetricSpMV or ParallelSpMV
    k : int, optional
        Right-hand sides per application; ``None`` binds the 1-D
        SpM×V signature.
    on_poison : {"recover", "raise"}
        What a call after a failed/interrupted application does. A
        fault mid-apply marks the operator *poisoned* (its workspaces
        may hold partial writes). ``"recover"`` (default) fully
        re-zeroes every workspace and proceeds, counting the event on
        the ``resilience.operator_recovered`` warning counter;
        ``"raise"`` fails with a typed
        :class:`~repro.resilience.errors.PoisonedOperatorError` until
        :meth:`recover` is called explicitly. Either way ``apply``
        never returns a partially-written ``y``.
    """

    def __init__(
        self, driver, k: Optional[int] = None, on_poison: str = "recover"
    ):
        if k is not None:
            k = int(k)
            if k < 1:
                raise ValueError(
                    f"need at least one right-hand side, got k={k}"
                )
        if on_poison not in _POISON_POLICIES:
            raise ValueError(
                f"on_poison must be one of {_POISON_POLICIES}, "
                f"got {on_poison!r}"
            )
        self.driver = driver
        self.k = k
        self.on_poison = on_poison
        self.n_calls = 0
        self._closed = False
        # Set by the driver for its cached operator(k); see __del__.
        self._owned = False
        self._poisoned = False
        # Serializes apply/recover/close: one set of persistent
        # workspaces means applications are non-reentrant by design
        # (see the class docstring for the lock-vs-busy-error choice).
        self._apply_lock = threading.Lock()
        m = driver.matrix
        shape = (m.n_rows,) if k is None else (m.n_rows, k)
        self._y = np.zeros(shape, dtype=np.float64)
        self._x: Optional[np.ndarray] = None
        self._x_shape = (m.n_cols,) if k is None else (m.n_cols, k)
        tracer = _active_tracer()
        with tracer.span("bind", k=k, threads=driver.n_threads):
            with tracer.span("bind.precompile"):
                self._precompile()
            with tracer.span("bind.workspaces"):
                self._allocate_workspaces()
            with tracer.span("bind.tasks"):
                self._tasks = self._build_tasks()
        # Elements _zero_workspaces clears per call (constant once
        # bound) — reported through the "bound.zeroed_elements" counter.
        self._zero_volume = int(self._y.size) + self._locals_zero_volume()

    def _locals_zero_volume(self) -> int:
        """Local-workspace elements zeroed per call (0 when the driver
        has no local buffers)."""
        return 0

    # -- bind-time hooks (overridden per driver kind) -------------------
    def _precompile(self) -> None:
        """Eagerly build the format's lazy execution caches."""

    def _allocate_workspaces(self) -> None:
        """Allocate any persistent buffers beyond the output."""

    def _build_tasks(self) -> list:
        """One precompiled closure per thread; each reads ``self._x``."""
        raise NotImplementedError

    def _zero_workspaces(self) -> None:
        self._y[...] = 0.0

    def _run_mult(self, label: Optional[str] = None) -> None:
        """Execute the precompiled multiplication phase. Default: one
        batch over ``self._tasks``; the colored symmetric path overrides
        this with barrier-stepped execution."""
        self.driver.executor.run_batch(
            self._tasks, label=label, reset=self._zero_workspaces
        )

    def _finish(self) -> None:
        """Post-multiplication phase (the symmetric reduction)."""

    # -- public surface -------------------------------------------------
    @property
    def matrix(self):
        return self.driver.matrix

    @property
    def n_threads(self) -> int:
        return self.driver.n_threads

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def poisoned(self) -> bool:
        """True after a failed/interrupted application until the next
        recovery (automatic under ``on_poison="recover"``, explicit via
        :meth:`recover` otherwise)."""
        return self._poisoned

    def recover(self) -> None:
        """Clear the poisoned state: every workspace — output and
        locals — is re-zeroed *in full* (not just the per-call
        effective windows, which assume the previous call completed
        cleanly). Counted on ``resilience.operator_recovered``. No-op
        on a healthy operator."""
        with self._apply_lock:
            self._recover_locked()

    def _recover_locked(self) -> None:
        """Recovery body; the caller holds ``_apply_lock``."""
        if self._closed:
            raise OperatorClosedError(
                "operator is closed; bind() a new one"
            )
        if not self._poisoned:
            return
        _obs_warn("resilience.operator_recovered")
        self._full_rezero()
        self._poisoned = False

    def _full_rezero(self) -> None:
        """Unconditional full-extent workspace clear (recovery path;
        the per-call :meth:`_zero_workspaces` may be window-restricted)."""
        self._y[...] = 0.0

    def bind(self, k: Optional[int] = None, on_poison: Optional[str] = None):
        """Idempotent re-bind: returns ``self`` when the signature
        already matches, else binds the underlying driver afresh (so a
        bound operator can be passed anywhere a driver is expected)."""
        if (
            k == self.k
            and not self._closed
            and on_poison in (None, self.on_poison)
        ):
            return self
        return self.driver.bind(k, on_poison=on_poison or self.on_poison)

    def _expected_x_shape(self) -> tuple[int, ...]:
        return self._x_shape

    def __call__(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute ``A @ x`` into the persistent workspace.

        Returns the workspace (overwritten by the next call) unless
        ``out`` is given, in which case the result is copied there.

        Raises :class:`OperatorClosedError` after ``close()``, and —
        under ``on_poison="raise"`` — :class:`PoisonedOperatorError`
        after a failed application; see :meth:`recover`.

        Concurrent calls serialize on the operator's internal lock
        (workspaces are shared; see the class docstring) — each caller
        gets the exact result it would have gotten alone.
        """
        with self._apply_lock:
            if self._closed:
                raise OperatorClosedError(
                    "operator is closed; bind() a new one"
                )
            if self._poisoned:
                if self.on_poison == "raise":
                    raise PoisonedOperatorError(
                        "operator poisoned by a failed apply; call "
                        "recover() or bind with on_poison='recover'"
                    )
                self._recover_locked()
            x = np.asarray(x, dtype=np.float64)
            if x.shape != self._x_shape:
                raise ValueError(
                    f"x has shape {x.shape}, expected {self._x_shape} for "
                    f"an operator bound with k={self.k}"
                )
            if x is self._y:
                # Power-iteration style y = op(op(x)) must not zero its
                # own input when the caller feeds the workspace back in.
                x = x.copy()
            tracer = _active_tracer()
            if tracer.enabled:
                return self._apply_traced(tracer, x, out)
            return self._apply(x, out)

    def _apply(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The uninstrumented hot path (input already validated).
        ``__call__`` dispatches here when no tracer is active; the
        overhead benchmark times this directly as the zero-
        instrumentation control for the disabled-tracer overhead."""
        self._zero_workspaces()
        self._x = x
        try:
            self._run_mult()
            self._finish()
        except BaseException:
            # Workspaces may be partially written; never let the next
            # call's window-restricted zeroing compute on top of them.
            self._poison()
            raise
        finally:
            self._x = None
        self.n_calls += 1
        if out is not None:
            np.copyto(out, self._y)
            return out
        return self._y

    def _metric_labels(self) -> dict:
        """(format, reduction, backend) identity of this operator —
        the label set its streaming histograms are keyed by."""
        reduction = getattr(self.driver, "reduction", None)
        return {
            "format": self.driver.matrix.format_name,
            "reduction": getattr(reduction, "name", "none"),
            "backend": self.driver.executor.mode,
        }

    def _apply_traced(
        self, tracer, x: np.ndarray, out: Optional[np.ndarray]
    ) -> np.ndarray:
        """The same application wrapped in phase spans ("spmv.mult" /
        "spmv.reduce") and traffic counters. Additionally streams
        per-application latency and modeled traffic into the
        ``op.apply_ns`` / ``op.traffic_bytes`` histograms, keyed by
        (format, reduction, backend); the ``op.apply_ns`` count is the
        number of traced applies."""
        t0 = perf_counter_ns()
        with tracer.span("bound.apply", k=self.k):
            with tracer.span("bound.zero"):
                self._zero_workspaces()
            tracer.metrics.counter("bound.zeroed_elements").inc(
                self._zero_volume
            )
            self._x = x
            try:
                with tracer.span("spmv.mult"):
                    self._run_mult(label="spmv.mult.task")
                with tracer.span("spmv.reduce"):
                    self._finish()
            except BaseException as exc:
                tracer.event(
                    "bound.poisoned", error=type(exc).__name__
                )
                self._poison()
                raise
            finally:
                self._x = None
            stream_bytes = _record_traffic(
                tracer, self.driver.matrix, self.k,
                getattr(self.driver, "reduction", None),
            )
        labels = self._metric_labels()
        tracer.metrics.histogram("op.apply_ns", **labels).record(
            perf_counter_ns() - t0
        )
        tracer.metrics.histogram("op.traffic_bytes", **labels).record(
            stream_bytes
        )
        self.n_calls += 1
        if out is not None:
            np.copyto(out, self._y)
            return out
        return self._y

    def _poison(self) -> None:
        """Mark the operator's workspaces as possibly holding partial
        writes (failed or interrupted application)."""
        if not self._poisoned:
            self._poisoned = True
            _obs_warn("resilience.operator_poisoned")

    def close(self) -> None:
        """Release the workspaces, the partition kernels the tasks hold
        and the format's lazy execution caches (``clear_caches``).
        Idempotent; the operator cannot be called afterwards. Note the
        format caches are shared with other operators bound to the same
        matrix — they rebuild on demand.
        Waits for any in-flight apply (same lock), so teardown never
        pulls workspaces out from under a running application."""
        with self._apply_lock:
            if self._closed:
                return
            self._closed = True
            self._tasks = []
            self._y = None
            with _active_tracer().span("bound.close"):
                self.driver.matrix.clear_caches()

    def __enter__(self) -> "BoundOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        # A bound operator owns workspaces and pinned format caches;
        # relying on GC to release them is a leak pattern. Count it
        # (obs warning counter, visible in every trace export) and
        # raise the standard ResourceWarning. A driver's own cached
        # operators are not counted: driver.close() releases them, and
        # an unclosed driver and its operators form a reference cycle
        # the cyclic collector reclaims at an arbitrary later point,
        # which would make the counter nondeterministic.
        try:
            if not self._closed and not self._owned:
                _obs_warn("bound_operator.unclosed_gc")
                warnings.warn(
                    f"{type(self).__name__} garbage-collected without "
                    "close(); use close() or a with-block",
                    ResourceWarning,
                    stacklevel=2,
                )
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"calls={self.n_calls}"
        return (
            f"<{type(self).__name__} k={self.k} "
            f"threads={self.driver.n_threads} {state}>"
        )


class BoundSymmetricSpMV(BoundOperator):
    """Bound two-phase symmetric driver: persistent ``(p, N[, k])``
    local vectors, per-partition kernels built at bind (for SSS the
    local/direct split, released on close), in-place effective-region
    zeroing, and the configured reduction.

    With the ``"coloring"`` strategy the bound shape changes: no local
    vectors exist (``allocate_locals`` is all ``None``, the zero volume
    is just ``y``), the color-class schedule — built once at reduction
    construction — has its per-``k`` scatter indices precompiled at bind
    time, and the multiplication phase runs the schedule's steps with a
    barrier per step instead of one flat batch."""

    @property
    def _conflict_free(self) -> bool:
        return getattr(self.driver.reduction, "conflict_free", False)

    def _precompile(self) -> None:
        # Partition kernels are built with the tasks; the colored path
        # never runs them, so compile the schedule's flat indices.
        if self._conflict_free:
            self.driver.reduction.schedule.precompile(self.k)

    def _allocate_workspaces(self) -> None:
        self._locals = self.driver.reduction.allocate_locals(self.k)

    def _locals_zero_volume(self) -> int:
        return int(self.driver.reduction.zeroed_elements(self.k))

    def _build_tasks(self) -> list:
        """Per-thread multiplication closures. Each holds its
        partition's kernel (``partition_kernel``: for SSS the bind-time
        local/direct split), so dropping the tasks releases those plans.

        For a conflict-free (coloring) reduction this returns the
        schedule's *steps* — a list of barrier-separated task lists —
        instead of a flat list; :meth:`_run_mult` runs them
        step-at-a-time."""
        driver = self.driver
        reduction = driver.reduction
        if self._conflict_free:
            from .coloring import compile_colored_steps

            return compile_colored_steps(
                reduction.schedule, self._y, lambda: self._x, self.k
            )
        tasks = []
        for tid, (start, end) in enumerate(driver.partitions):
            y_direct, y_local = reduction.thread_targets(
                tid, self._y, self._locals
            )
            kernel = driver.matrix.partition_kernel(start, end, self.k)

            def task(kernel=kernel, y_direct=y_direct,
                     y_local=y_local) -> None:
                kernel(self._x, y_direct, y_local)

            tasks.append(task)
        return tasks

    def _run_mult(self, label: Optional[str] = None) -> None:
        if not self._conflict_free:
            super()._run_mult(label)
            return
        from .coloring import run_colored_steps

        run_colored_steps(
            self.driver.executor, self._tasks, label=label,
            zero=self._zero_workspaces,
        )

    def _zero_workspaces(self) -> None:
        self._y[...] = 0.0
        self.driver.reduction.zero_locals(self._locals)

    def _full_rezero(self) -> None:
        # Recovery cannot trust the window-restricted zeroing: clear
        # the local buffers over their full extent.
        self._y[...] = 0.0
        for buf in self._locals:
            if buf is not None:
                buf[...] = 0.0

    def _finish(self) -> None:
        self.driver.reduction.reduce(self._y, self._locals)

    def close(self) -> None:
        if not self._closed:
            self._locals = []
        super().close()

    def footprint(self, k: int = 1):
        """Working-set accounting of the bound reduction."""
        return self.driver.reduction.footprint(k)


class BoundSpMV(BoundOperator):
    """Bound row-partitioned unsymmetric driver (CSR / CSX): no
    reduction phase, rows are thread-exclusive."""

    def _precompile(self) -> None:
        self.driver.matrix.precompile(self.k)

    def _build_tasks(self) -> list:
        """Per-thread closures: CSX partitions execute by index, CSR
        by row range."""
        matrix = self.driver.matrix
        y = self._y
        multi = self.k is not None
        tasks = []
        if hasattr(matrix, "spmv_partition_only"):
            kernel = (
                matrix.spmm_partition_only
                if multi
                else matrix.spmv_partition_only
            )
            for tid in range(self.driver.n_threads):

                def task(tid=tid) -> None:
                    kernel(self._x, y, tid)

                tasks.append(task)
        else:
            kernel = matrix.spmm_rows if multi else matrix.spmv_rows
            for start, end in self.driver.partitions:

                def task(start=start, end=end) -> None:
                    kernel(self._x, y, start, end)

                tasks.append(task)
        return tasks
