"""Unit tests for the thread-task executor backends."""

import threading
import time

import pytest

from repro.parallel import Executor


def test_serial_runs_in_order():
    order = []
    tasks = [lambda i=i: order.append(i) for i in range(5)]
    Executor("serial").run_batch(tasks)
    assert order == [0, 1, 2, 3, 4]


def test_serial_empty_batch():
    Executor("serial").run_batch([])


def test_threads_runs_all_tasks():
    done = set()
    lock = threading.Lock()

    def make(i):
        def task():
            with lock:
                done.add(i)

        return task

    with Executor("threads", max_workers=3) as ex:
        ex.run_batch([make(i) for i in range(10)])
    assert done == set(range(10))


def test_threads_propagates_exceptions():
    def boom():
        raise RuntimeError("kaput")

    with Executor("threads") as ex:
        with pytest.raises(RuntimeError, match="kaput"):
            ex.run_batch([boom])


def test_serial_propagates_exceptions():
    def boom():
        raise ValueError("nope")

    with pytest.raises(ValueError, match="nope"):
        Executor("serial").run_batch([boom])


def test_unknown_mode_rejected():
    # A retired backend name must fail loudly, not fall back.
    for mode in ("fibers", "processes"):
        with pytest.raises(ValueError):
            Executor(mode)


def test_pool_reused_across_batches():
    with Executor("threads", max_workers=2) as ex:
        ex.run_batch([lambda: None])
        pool = ex._pool
        ex.run_batch([lambda: None])
        assert ex._pool is pool


def test_close_idempotent():
    ex = Executor("threads")
    ex.run_batch([lambda: None])
    ex.close()
    ex.close()


def test_invalid_max_workers_rejected():
    with pytest.raises(ValueError):
        Executor("threads", max_workers=0)


def test_pool_grows_for_larger_batches():
    # Regression: without max_workers the pool used to be sized by the
    # first batch forever, silently serializing any later larger batch.
    # A barrier only releases if all 8 tasks truly run concurrently.
    with Executor("threads") as ex:
        ex.run_batch([lambda: None])  # sizes the pool at 1
        barrier = threading.Barrier(8)
        timed_out = []

        def make():
            def task():
                try:
                    barrier.wait(timeout=5.0)
                except threading.BrokenBarrierError:
                    timed_out.append(True)

            return task

        ex.run_batch([make() for _ in range(8)])
        assert not timed_out
        assert ex._pool_size >= 8


def test_explicit_max_workers_pool_stable():
    with Executor("threads", max_workers=2) as ex:
        ex.run_batch([lambda: None])
        pool = ex._pool
        ex.run_batch([lambda: None for _ in range(6)])
        assert ex._pool is pool  # capped pools never regrow


def test_failure_waits_for_slow_sibling():
    # Regression: run_batch used to re-raise on the first failed future
    # while sibling tasks were still running — the caller could observe
    # (and re-zero) buffers a live task then kept writing. Now the
    # error only propagates once every sibling has finished.
    writes = []
    started = threading.Event()

    def boom():
        # Only fail once the sibling is provably in flight (started and
        # uncancellable), so the test exercises the await path, not the
        # cancellation path.
        assert started.wait(timeout=5.0)
        raise RuntimeError("failure with sibling in flight")

    def slow_writer():
        started.set()
        time.sleep(0.1)
        writes.append("late write")

    with Executor("threads", max_workers=2) as ex:
        with pytest.raises(RuntimeError):
            ex.run_batch([boom, slow_writer])
        # Containment: by the time the error propagates, the slow
        # sibling has completed — no in-flight writer survives.
        assert writes == ["late write"]


def test_pool_growth_retires_old_workers():
    # Regression: growing the pool replaced it without an explicit
    # wait=True shutdown; old workers could outlive the swap. Record
    # the first pool's threads and check none survives the growth.
    first_pool_threads = []
    lock = threading.Lock()

    def record():
        with lock:
            first_pool_threads.append(threading.current_thread())

    with Executor("threads") as ex:
        ex.run_batch([record, record])  # sizes the pool at 2
        ex.run_batch([lambda: None for _ in range(6)])  # forces growth
        assert ex._pool_size >= 6
        assert first_pool_threads
        assert not any(t.is_alive() for t in first_pool_threads)


# ----------------------------------------------------------------------
# Fail-fast construction
# ----------------------------------------------------------------------
def test_unknown_mode_error_lists_backends():
    with pytest.raises(ValueError) as exc_info:
        Executor("fibers")
    msg = str(exc_info.value)
    for mode in ("serial", "threads", "chaos"):
        assert mode in msg
