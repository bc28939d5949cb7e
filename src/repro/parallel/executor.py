"""Task execution backends.

The library needs to run "one task per thread" twice per SpM×V (the
multiplication phase and the reduction phase). Three backends exist,
all on one in-process execution path:

* ``serial`` (default) — tasks run sequentially in deterministic order.
  Correctness and the traffic instrumentation are identical to a
  parallel run (the algorithms are data-race-free by construction);
  this is the reproducible backend the experiments use, with timing
  supplied by the machine model (see DESIGN.md's hardware substitution).
* ``threads`` — a real ``ThreadPoolExecutor`` over shared output and
  local vectors, the paper's Pthreads arrangement. The compiled CSR/SSS
  kernels and NumPy release the GIL inside their loops, so this is
  genuine concurrency; host wall clock still says nothing about the
  paper's platforms.
* ``chaos`` — the ``threads`` backend with a deterministic
  :class:`~repro.resilience.chaos.ChaosPlan` injecting per-task
  exceptions, delays and submission reorders, so every failure path of
  the containment machinery is reachable in tests and from
  ``repro fuzz --chaos``.

Failure containment (all parallel backends): when any task raises,
``run_batch`` first awaits or cancels **every** sibling future — so no
task can keep mutating shared output buffers after the call returns —
then raises one :class:`~repro.resilience.errors.BatchExecutionError`
aggregating every task's exception with its ``tid`` and the batch
label. An optional ``fallback="serial"`` mode degrades gracefully: the
failed batch is retried once serially (after the caller-supplied
``reset`` re-zeroes any partially-written workspaces), counted on the
``resilience.serial_fallback`` warning counter.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from time import perf_counter_ns
from typing import Callable, Optional, Sequence

from ..obs.tracer import active as _active_tracer, warn as _obs_warn
from ..resilience.chaos import ChaosPlan
from ..resilience.errors import BatchExecutionError, TaskFailure

__all__ = ["Executor"]

_MODES = ("serial", "threads", "chaos")


class Executor:
    """Runs a batch of thread tasks with a chosen backend.

    Parameters
    ----------
    mode : {"serial", "threads", "chaos"}
    max_workers : int, optional
        Worker count for the pooled backends (defaults to the task
        count of each batch).
    plan : ChaosPlan, optional
        Fault plan for the ``chaos`` backend (default: a delay/reorder
        only ``ChaosPlan(seed=0)`` — scheduling chaos, no exceptions).
        Rejected for other modes.
    fallback : {None, "serial"}
        ``"serial"`` retries a failed batch once, serially, after
        re-zeroing workspaces through the caller's ``reset`` hook.

    Construction is fail-fast: an unknown mode or a misplaced ``plan=``
    raises a typed ``ValueError`` here, not at the first ``run_batch``.
    """

    def __init__(
        self,
        mode: str = "serial",
        max_workers: Optional[int] = None,
        *,
        plan: Optional[ChaosPlan] = None,
        fallback: Optional[str] = None,
    ):
        if mode not in _MODES:
            raise ValueError(
                f"unknown executor mode {mode!r}; choose from {_MODES}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if plan is not None and mode != "chaos":
            raise ValueError("plan= is only meaningful with mode 'chaos'")
        if fallback not in (None, "serial"):
            raise ValueError(f"unknown fallback {fallback!r}")
        self.mode = mode
        self.max_workers = max_workers
        if mode == "chaos" and plan is None:
            plan = ChaosPlan(0)
        self.plan = plan
        self.fallback = fallback
        self.n_batches = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_size = 0
        # Guards the batch-id counter and the pool lifecycle. Two
        # concurrent run_batch callers must never observe the same batch
        # id (it seeds chaos-plan fault derivation and trace/metric
        # attribution), and a caller must never submit to a pool another
        # caller is concurrently replacing through _ensure_pool.
        self._lock = threading.Lock()

    def run_batch(
        self,
        tasks: Sequence[Callable[[], None]],
        label: Optional[str] = None,
        reset: Optional[Callable[[], None]] = None,
        tid_base: int = 0,
    ) -> Optional[int]:
        """Execute all tasks; returns when every task has finished.

        Returns the unique batch id assigned to this execution (``None``
        for an empty task list). Ids are allocated under the executor
        lock, so concurrent callers observe distinct, gap-free ids.

        Tasks must be mutually data-race-free (they are: each writes
        disjoint array regions or thread-private buffers).

        When a tracer is active, each task runs inside a span named
        ``label`` (default ``"task"``) with its batch index as the
        ``tid`` attribute — recorded on the executing thread, so the
        Chrome export shows the real per-thread timeline; a task that
        raises additionally records a ``task.error`` instant event.
        Per-task and whole-batch durations additionally stream into the
        tracer's ``task.latency_ns`` / ``batch.latency_ns`` histograms,
        labelled with the batch label and the executor mode.

        On failure every sibling future is awaited or cancelled first,
        then a single :class:`BatchExecutionError` aggregates all task
        exceptions — by the time it propagates, nothing from this batch
        is still writing. ``reset`` is only invoked before the
        ``fallback="serial"`` retry, to restore partially-written
        workspaces to their pre-batch state.

        ``tid_base`` offsets the task ids this batch reports (trace
        spans, chaos-plan derivation). The colored schedule issues one
        ``run_batch`` per barrier-separated step and passes the
        cumulative task offset, so chaos faults stay deterministic per
        global task, not per step-local position.
        """
        if not tasks:
            return None
        tasks = list(tasks)
        tracer = _active_tracer()
        name = label or "task"
        with self._lock:
            batch = self.n_batches
            self.n_batches += 1

        t0 = perf_counter_ns() if tracer.enabled else 0

        def record_batch() -> None:
            if tracer.enabled:
                tracer.metrics.histogram(
                    "batch.latency_ns", label=name, backend=self.mode
                ).record(perf_counter_ns() - t0)

        def instrumented(task_list):
            if not tracer.enabled:
                return task_list
            return [
                self._traced(tracer, name, tid_base + i, task, self.mode)
                for i, task in enumerate(task_list)
            ]

        if self.mode == "serial":
            for task in instrumented(tasks):
                task()
            record_batch()
            return batch

        if self.mode == "chaos":
            exec_tasks = [
                self.plan.wrap(batch, tid_base + i, task)
                for i, task in enumerate(tasks)
            ]
            order = self.plan.submission_order(batch, len(tasks))
        else:
            exec_tasks = tasks
            order = list(range(len(tasks)))

        try:
            self._run_pooled(instrumented(exec_tasks), order, name, batch)
        except BatchExecutionError:
            if self.fallback != "serial":
                raise
            # Graceful degradation: one warning-counted serial retry of
            # the *original* tasks (no chaos wrapping — an injected
            # fault is a backend property, not a task property).
            _obs_warn("resilience.serial_fallback")
            if tracer.enabled:
                tracer.event("batch.fallback", label=name, batch=batch)
            if reset is not None:
                reset()
            tid = 0
            try:
                for tid, task in enumerate(instrumented(tasks)):
                    task()
            except BaseException as exc:
                raise BatchExecutionError(
                    name, batch, [TaskFailure(tid_base + tid, exc)],
                    n_tasks=len(tasks),
                ) from exc
        record_batch()
        return batch

    @staticmethod
    def _traced(tracer, name: str, tid: int, task, mode: str):
        def run() -> None:
            start = perf_counter_ns()
            with tracer.span(name, tid=tid):
                try:
                    task()
                except BaseException as exc:
                    tracer.event(
                        "task.error", tid=tid, error=type(exc).__name__
                    )
                    raise
            # Resolved here, on the executing thread, so the histogram
            # lands in that thread's shard (no cross-thread mutation).
            tracer.metrics.histogram(
                "task.latency_ns", label=name, backend=mode
            ).record(perf_counter_ns() - start)

        return run

    def _run_pooled(
        self, exec_tasks: list, order: list, name: str, batch: int
    ) -> None:
        # Acquire-and-submit atomically: _ensure_pool may replace the
        # pool (growth shuts the old one down), and a concurrent caller
        # submitting to the replaced pool would hit "cannot schedule new
        # futures after shutdown". Only submission is serialized; the
        # wait below runs lock-free.
        with self._lock:
            pool = self._ensure_pool(len(exec_tasks))
            futures = {pool.submit(exec_tasks[i]): i for i in order}
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        if not any(f.exception() is not None for f in done):
            return
        # Containment: a failure must not leave siblings running —
        # cancel whatever has not started, then await the rest, so no
        # future is still mutating shared output when we raise.
        for f in not_done:
            f.cancel()
        if not_done:
            wait(not_done)
        failures = []
        n_cancelled = 0
        for f, tid in futures.items():
            if f.cancelled():
                n_cancelled += 1
                continue
            exc = f.exception()
            if exc is not None:
                failures.append(TaskFailure(tid, exc))
        _obs_warn("resilience.batch_failure")
        raise BatchExecutionError(
            name, batch, failures,
            n_tasks=len(exec_tasks), n_cancelled=n_cancelled,
        )

    def _ensure_pool(self, n_tasks: int) -> ThreadPoolExecutor:
        """Pool sized for the *current* batch: with no explicit
        ``max_workers`` the pool grows when a later batch brings more
        tasks than any earlier one (a pool sized by the first batch
        would silently serialize the excess tasks forever).

        Callers must hold ``self._lock``: growth replaces the pool, and
        the acquire-submit window of every concurrent batch has to see a
        consistent pool reference."""
        want = self.max_workers if self.max_workers is not None else n_tasks
        if self._pool is not None and want > self._pool_size:
            # wait=True: every worker of the replaced pool has exited
            # before the grown pool takes over — no orphaned threads
            # holding references to earlier batches' buffers.
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool_size = want
            self._pool = ThreadPoolExecutor(max_workers=want)
        return self._pool

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            self._pool_size = 0
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
