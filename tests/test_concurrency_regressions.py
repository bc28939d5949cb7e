"""Regression tests for the concurrent-caller fixes in the executor /
bound-operator / format-cache layer.

Each test here encodes a race that existed before the corresponding
fix and fails on the pre-fix code:

* ``Executor.n_batches`` was read-modify-written without a lock, so
  concurrent ``run_batch`` callers could observe duplicate batch ids —
  which breaks chaos-plan fault attribution (faults derive from
  ``(seed, batch, tid)``) and made pool startup/shutdown racy.
* ``BoundOperator.__call__`` zeroed and filled *shared* persistent
  workspaces with no mutual exclusion, so two threads applying the
  same operator silently corrupted each other's results.
* The bounded lazy caches (``RowScatter`` flat indices, CSX plan
  scatters) mutated plain dicts from worker threads; eviction could
  yank a compiled array from under an in-flight kernel. (SSS keeps no
  such cache: each bound operator owns its partition splits, and the
  last test checks that operators sharing one matrix stay exact.)

The drivers' own cross-backend bit-identity is covered by the
conformance suite; these tests aim threads at the *same* object on
purpose.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.formats.base import FLAT_CACHE_MAX, RowScatter
from repro.parallel import Executor, ParallelSymmetricSpMV

from tests.conformance import build_symmetric, rhs_block

pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture
def fast_switching():
    """Force frequent thread switches so interleavings that need a
    precise schedule actually happen within a short test."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


# ----------------------------------------------------------------------
# Executor: batch-id allocation under concurrency
# ----------------------------------------------------------------------
def test_concurrent_run_batch_ids_unique_and_gap_free(fast_switching):
    """N threads x M batches must observe N*M distinct, gap-free ids.

    Pre-fix, the unsynchronized ``self.n_batches += 1`` lost updates
    under contention and two batches could share an id.
    """
    ex = Executor("serial")
    n_threads, n_batches = 8, 50
    ids: list[list[int]] = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads)

    def worker(slot: int) -> None:
        start.wait()
        for _ in range(n_batches):
            ids[slot].append(ex.run_batch([lambda: None]))

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    seen = [b for slot in ids for b in slot]
    assert len(seen) == n_threads * n_batches
    assert sorted(seen) == list(range(n_threads * n_batches))
    assert ex.n_batches == n_threads * n_batches


def test_empty_batch_allocates_no_id():
    ex = Executor("serial")
    assert ex.run_batch([]) is None
    assert ex.n_batches == 0
    assert ex.run_batch([lambda: None]) == 0


def test_concurrent_threaded_batches_with_close(fast_switching):
    """run_batch racing close() must never crash on a torn-down pool
    (pre-fix: submit could hit 'cannot schedule new futures after
    shutdown')."""
    ex = Executor("threads", max_workers=2)
    hits = []
    stop = threading.Event()

    def runner() -> None:
        while not stop.is_set():
            try:
                ex.run_batch([lambda: hits.append(1)] * 3)
            except RuntimeError as exc:  # pragma: no cover - the bug
                pytest.fail(f"run_batch raced close(): {exc}")

    threads = [threading.Thread(target=runner) for _ in range(3)]
    for t in threads:
        t.start()
    for _ in range(20):
        ex.close()  # runners re-create the pool; close again
    stop.set()
    for t in threads:
        t.join()
    ex.close()
    assert hits  # work actually ran


# ----------------------------------------------------------------------
# BoundOperator: concurrent applies on one operator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reduction", ["indexed", "coloring"])
def test_bound_operator_concurrent_apply_bit_exact(
    fast_switching, reduction
):
    """Two threads hammering one bound operator must each get the
    exact result they would have gotten alone.

    Pre-fix, the shared persistent workspaces (y, locals) were zeroed
    and accumulated by both callers at once, corrupting both results.
    """
    matrix, parts = build_symmetric("random", "sss", "thirds")
    driver = ParallelSymmetricSpMV(
        matrix, parts, reduction, executor=Executor("threads", 2)
    )
    op = driver.bind()
    serial = ParallelSymmetricSpMV(matrix, parts, driver.reduction)
    xs = [rhs_block(matrix.n_rows, None, seed=s) for s in (1, 2)]
    refs = [serial(x) for x in xs]
    n_iter = 60
    failures: list[str] = []
    start = threading.Barrier(2)

    def worker(slot: int) -> None:
        x, ref = xs[slot], refs[slot]
        out = np.empty_like(ref)
        start.wait()
        for i in range(n_iter):
            op(x, out=out)
            if not np.array_equal(out, ref):
                failures.append(
                    f"thread {slot} iter {i}: max diff "
                    f"{np.abs(out - ref).max():.3e}"
                )
                return

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    op.close()
    assert not failures, failures[0]


@pytest.mark.parametrize("reduction", ["indexed", "coloring"])
def test_unbound_driver_concurrent_calls_bit_exact(
    fast_switching, reduction
):
    """Two threads calling the same *driver* share its cached bound
    operator; the applies serialize on its lock and each caller gets
    its own result array, bit-identical to a solo serial call."""
    matrix, parts = build_symmetric("random", "sss", "thirds")
    driver = ParallelSymmetricSpMV(
        matrix, parts, reduction, executor=Executor("threads", 2)
    )
    with ParallelSymmetricSpMV(matrix, parts, driver.reduction) as serial:
        xs = [rhs_block(matrix.n_rows, None, seed=s) for s in (1, 2)]
        refs = [serial(x) for x in xs]
    failures: list[str] = []
    start = threading.Barrier(2)

    def worker(slot: int) -> None:
        x, ref = xs[slot], refs[slot]
        start.wait()
        for i in range(60):
            y = driver(x)
            if not np.array_equal(y, ref):
                failures.append(f"thread {slot} iter {i}")
                return

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    driver.close()
    driver.executor.close()
    assert not failures, failures[0]


def test_bound_operator_recover_during_applies(fast_switching):
    """recover() from a second thread must serialize against applies
    instead of re-zeroing workspaces mid-computation."""
    matrix, parts = build_symmetric("random", "sss", "thirds")
    driver = ParallelSymmetricSpMV(matrix, parts, "indexed")
    op = driver.bind()
    serial = ParallelSymmetricSpMV(matrix, parts, driver.reduction)
    x = rhs_block(matrix.n_rows, None, seed=5)
    ref = serial(x)
    stop = threading.Event()

    def recoverer() -> None:
        while not stop.is_set():
            op.recover()

    t = threading.Thread(target=recoverer)
    t.start()
    try:
        out = np.empty_like(ref)
        for _ in range(50):
            op(x, out=out)
            assert np.array_equal(out, ref)
    finally:
        stop.set()
        t.join()
        op.close()


# ----------------------------------------------------------------------
# Format caches: compile/evict/clear under concurrency
# ----------------------------------------------------------------------
def test_row_scatter_cache_stress(fast_switching):
    """Concurrent scatters across more ``k`` values than the cache
    holds, racing a clearing thread: every scatter must still land the
    correct sums (pre-fix, eviction/clear raced the flat-index build
    and scatters could see a half-built or missing index)."""
    rng = np.random.default_rng(42)
    idx = rng.integers(0, 40, size=200)
    scatter = RowScatter(idx)
    ks = list(range(1, FLAT_CACHE_MAX + 5))  # force evictions
    products = {
        k: rng.standard_normal((idx.size, k)) for k in ks
    }
    refs = {}
    for k in ks:
        y = np.zeros((40, k))
        scatter.add(y, products[k])
        refs[k] = y
    scatter.clear()

    stop = threading.Event()
    failures: list[str] = []

    def clearer() -> None:
        while not stop.is_set():
            scatter.clear()

    def worker(seed: int) -> None:
        order = list(ks)
        np.random.default_rng(seed).shuffle(order)
        for _ in range(15):
            for k in order:
                y = np.zeros((40, k))
                scatter.add(y, products[k])
                if not np.array_equal(y, refs[k]):
                    failures.append(f"k={k} scatter corrupted")
                    return

    clear_thread = threading.Thread(target=clearer)
    workers = [
        threading.Thread(target=worker, args=(s,)) for s in (1, 2, 3)
    ]
    clear_thread.start()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    stop.set()
    clear_thread.join()
    assert not failures, failures[0]
    assert len(scatter._flat) <= FLAT_CACHE_MAX


def test_sss_shared_matrix_bind_apply_stress(fast_switching):
    """Threads binding, applying and closing their own operators with
    distinct partitionings of one shared SSS matrix — some on a thread
    pool, so the compiled partition kernels really overlap — must all
    stay bit-identical to serial. Each operator owns its partition
    splits; the matrix holds no execution state to race on."""
    matrix, _ = build_symmetric("random", "sss", "single")
    n = matrix.n_rows
    layouts = []
    for p in (1, 2, 3, 5, 6):
        bounds = np.linspace(0, n, p + 1).astype(int)
        layouts.append(
            [(int(bounds[i]), int(bounds[i + 1])) for i in range(p)]
        )
    x = rhs_block(n, None, seed=9)
    refs = [
        np.array(ParallelSymmetricSpMV(matrix, parts, "indexed")(x))
        for parts in layouts
    ]
    pool = Executor("threads", max_workers=2)
    failures: list[str] = []

    def worker(slot: int) -> None:
        parts, ref = layouts[slot % len(layouts)], refs[slot % len(refs)]
        executor = pool if slot % 2 else None
        for i in range(15):
            driver = ParallelSymmetricSpMV(
                matrix, parts, "indexed", executor=executor
            )
            with driver.bind() as op:
                if not np.array_equal(op(x), ref):
                    failures.append(f"worker {slot} iter {i} corrupted")
                    return

    workers = [
        threading.Thread(target=worker, args=(i,)) for i in range(6)
    ]
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        pool.close()
    assert not any(t.is_alive() for t in workers)
    assert not failures, failures[0]
