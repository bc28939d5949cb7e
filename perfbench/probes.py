"""Host ceiling probes recorded with every run.

* numpy triad bandwidth at the workload's working-set size (one
  thread; bytes computed by the STREAM convention, 24 B per element);
* scipy's compiled CSR matvec on the workload's matrix;
* an empty-batch ``Executor.run_batch`` round trip on the threads
  backend;
* write + fsync of one checkpoint-sized file.

Each probe reports the median of its repetitions.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np


def _median_time(fn, min_reps: int, min_seconds: float) -> float:
    times = []
    start = perf_counter()
    while len(times) < min_reps or perf_counter() - start < min_seconds:
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return statistics.median(times)


def triad_gbps(working_set_bytes: int) -> float:
    """``a = b + s * c`` over three arrays totalling the working set."""
    n = max(1024, int(working_set_bytes) // 24)
    a = np.zeros(n)
    b = np.ones(n)
    c = np.full(n, 2.0)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    triad()
    return 24.0 * n / _median_time(triad, 10, 0.3) / 1e9


def scipy_spmv_ms(csr, rng: np.random.Generator) -> float:
    x = rng.standard_normal(csr.shape[1])
    csr @ x
    return _median_time(lambda: csr @ x, 10, 0.3) * 1e3


def dispatch_us(n_threads: int) -> float:
    from repro.parallel.executor import Executor

    executor = Executor("threads", max_workers=n_threads)
    tasks = [lambda: None] * n_threads
    try:
        executor.run_batch(tasks)
        return _median_time(
            lambda: executor.run_batch(tasks), 200, 0.2
        ) * 1e6
    finally:
        executor.close()


def fsync_ms(directory: Path, n_bytes: int) -> float:
    payload = os.urandom(max(1, int(n_bytes)))
    path = directory / "fsync_probe.bin"

    def write():
        with open(path, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())

    try:
        return _median_time(write, 5, 0.1) * 1e3
    finally:
        path.unlink(missing_ok=True)


def host_probes(csr, working_set_bytes, n_threads, directory, ckpt_bytes,
                rng) -> dict[str, float]:
    return {
        "host.triad_gbps": triad_gbps(working_set_bytes),
        "host.scipy_spmv_ms": scipy_spmv_ms(csr, rng),
        "host.dispatch_us": dispatch_us(n_threads),
        "host.fsync_ms": fsync_ms(directory, ckpt_bytes),
    }
