"""The three workloads. Each takes its run-size knobs from its
``config`` in ``record.json`` (the tests shrink them), makes every
input from the seed, times from outside the program and checks every
result with the oracle in ``oracle.py``. The fixed parameters below are
recorded, with the reasons for them, in ``record.json``.

A workload function returns a :class:`Run`; ``run.py`` turns it into
the metrics. With a recorder (traced run) the caller has already
installed the span wrappers, so set-up below is traced as well.
"""

from __future__ import annotations

import asyncio
import os
import resource
import shutil
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from oracle import Oracle
from probes import host_probes

# Program modules are reached through their module objects so that the
# traced run's wrappers (installed on those modules) are the ones called.
from repro.analysis import configs
from repro.matrices import mmio, suite
from repro import ooc
from repro.ooc import checkpoint as ooc_checkpoint
from repro.parallel import executor as executor_mod, spmv as spmv_mod
from repro.serve import registry as registry_mod, server as server_mod
from repro.solvers import cg as cg_mod


TOL = 1e-8
REDUCTION = "indexed"
#: serve_mixed: the run alternates this many open-loop segments with as
#: many closed-loop ones; the open loop takes OPEN_SHARE of the time.
SEGMENTS = 4
OPEN_SHARE = 0.75
CLIENTS = 8
#: ooc_cg: shards, resident budget as a share of the shard payload,
#: CG iterations per checkpoint, in-core baseline solves per solve.
N_SHARDS = 8
BUDGET_FRACTION = 0.5
CHECKPOINT_EVERY = 5
BASELINE_REPEATS = 3

#: The metric ``trace.overhead_frac`` compares, per workload.
PRIMARY_METRIC = {
    "cg_thermal2": "solve_ms.p50",
    "serve_mixed": "spmv_ms.p50",
    "ooc_cg": "solve_ms.p50",
}


def n_threads() -> int:
    """Executor threads: the cores this process may run on (nproc)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Run:
    """What one workload measured."""

    setup_s: list = field(default_factory=list)
    solve_ms: list = field(default_factory=list)
    serial_solve_ms: list = field(default_factory=list)
    spmv_ms: list = field(default_factory=list)
    #: Operations completed per second in the throughput phase.
    peak_rps: float = 0.0
    attempted: int = 0
    #: Failed operation -> what failed (an operation counts once).
    failures: dict = field(default_factory=dict)
    #: Traced window (perf_counter_ns) of the measured phase.
    window: tuple = (0, 0)
    #: Peak resident memory (MB) at the end of the measured phase,
    #: before the host probes allocate their own arrays.
    peak_rss_mb: float = 0.0
    #: Inputs to the per-layer metrics (probes, counts, samples).
    layer: dict = field(default_factory=dict)

    def fail(self, op: str, what: str) -> None:
        self.failures.setdefault(op, []).append(what)

    def end_measuring(self, t0: int) -> None:
        self.window = (t0, perf_counter_ns())
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def bench_span(rec, name: str):
    """Span for the benchmark's own work inside the traced window."""
    if rec is None:
        yield
        return
    span = rec.open(name)
    try:
        yield
    finally:
        rec.close(span)


def working_set_bytes(matrix_bytes: float, n: int) -> int:
    """Computed working set: the stored matrix plus seven N-vectors
    (x, y and the five CG vectors)."""
    return int(matrix_bytes + 7 * 8 * n)


def _check_solve(run: Run, oracle: Oracle, op: str, res, b, tol) -> None:
    if not res.converged:
        run.fail(op, f"not converged after {res.iterations} iterations")
    elif not oracle.solves(b, res.x, tol):
        run.fail(op, f"true residual {oracle.residual(b, res.x):.3e}")


def _timed(fn, samples: list):
    """``fn`` with each call's wall time appended to ``samples`` (ms)."""
    def call(x):
        t = perf_counter_ns()
        y = fn(x)
        samples.append((perf_counter_ns() - t) / 1e6)
        return y
    return call


def _setup_due(run: Run, repeats: int, t0: int, seconds: float) -> bool:
    """Spread the set-up repetitions over the measured phase, so that
    ``setup_s`` samples the host at the same moments as the rest."""
    elapsed = (perf_counter_ns() - t0) / 1e9 / seconds
    return len(run.setup_s) < min(repeats, 1 + (repeats - 1) * elapsed)


def _probe_inputs(oracle, matrix_bytes, n, p, work, seed) -> dict:
    ws = working_set_bytes(matrix_bytes, n)
    probes = host_probes(
        oracle.csr, ws, p, work, 3 * 8 * n,
        np.random.default_rng(seed + 1),
    )
    return {"probes": probes, "working_set_bytes": ws}


# ----------------------------------------------------------------------
# cg_thermal2
# ----------------------------------------------------------------------
def cg_thermal2(cfg: dict, seed: int, seconds: float, rec, work: Path,
                setup_repeats: int) -> Run:
    run = Run()
    p = n_threads()
    coo = suite.get_entry("thermal2").build(scale=cfg["scale"], seed=seed)
    oracle = Oracle(coo)

    def setup():
        t = perf_counter()
        matrix, parts = configs.build_format(coo, "sss", p)
        executor = executor_mod.Executor("threads", max_workers=p)
        driver = spmv_mod.ParallelSymmetricSpMV(
            matrix, parts, REDUCTION, executor=executor
        )
        op = driver.bind()
        run.setup_s.append(perf_counter() - t)
        return matrix, parts, driver, op

    matrix, parts, driver, op = setup()
    # The p = 1 baseline: the same partitions and reduction instance run
    # one after another on the serial executor -- the repo's serial /
    # threads bit-identity contract.
    serial = spmv_mod.ParallelSymmetricSpMV(
        matrix, parts, driver.reduction,
        executor=executor_mod.Executor("serial"),
    ).bind()
    rng = np.random.default_rng(seed)
    timed = _timed(op, run.spmv_ms)
    try:
        t0 = perf_counter_ns()
        deadline = t0 + seconds * 1e9
        i = 0
        while True:
            b = rng.standard_normal(coo.n_rows)
            if rec is not None:
                rec.set_rid(i)
            t = perf_counter()
            res = cg_mod.conjugate_gradient(timed, b, tol=TOL)
            dt = perf_counter() - t
            t = perf_counter()
            sres = cg_mod.conjugate_gradient(serial, b, tol=TOL)
            sdt = perf_counter() - t
            run.attempted += 2
            run.solve_ms.append(dt * 1e3)
            run.serial_solve_ms.append(sdt * 1e3)
            with bench_span(rec, "bench.oracle"):
                _check_solve(run, oracle, f"threaded solve {i}", res, b, TOL)
                _check_solve(run, oracle, f"serial solve {i}", sres, b, TOL)
                if not np.array_equal(res.x, sres.x):
                    run.fail(f"threaded solve {i}", "x differs from p = 1")
            if i == 0:
                run.layer["iters"] = int(res.iterations)
            i += 1
            while _setup_due(run, setup_repeats, t0, seconds):
                _close_driver(*setup()[2:])
            if perf_counter_ns() + (dt + sdt) * 1e9 > deadline:
                break
        while len(run.setup_s) < setup_repeats:
            _close_driver(*setup()[2:])
        run.end_measuring(t0)
        if rec is not None:
            rec.set_rid(None)
        run.peak_rps = len(run.solve_ms) / (sum(run.solve_ms) / 1e3)
        run.layer.update(_probe_inputs(
            oracle, matrix.size_bytes(), coo.n_rows, p, work, seed
        ))
    finally:
        serial.close()
        _close_driver(driver, op)
    return run


def _close_driver(driver, op=None) -> None:
    if op is not None:
        op.close()
    driver.executor.close()


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def serve_mixed(cfg: dict, seed: int, seconds: float, rec, work: Path,
                setup_repeats: int) -> Run:
    run = Run()
    p = n_threads()
    coo = suite.get_entry("parabolic_fem").build(
        scale=cfg["scale"], seed=seed
    )
    oracle = Oracle(coo)

    def setup():
        t = perf_counter()
        matrix, parts = configs.build_format(coo, "csx-sym", p)
        executor = executor_mod.Executor("threads", max_workers=p)
        registry = registry_mod.OperatorRegistry()
        entry = registry.register(
            matrix, parts, reduction=REDUCTION, executor=executor
        )
        run.setup_s.append(perf_counter() - t)
        return matrix, registry, executor, entry

    matrix, registry, executor, entry = setup()
    rng = np.random.default_rng(seed)
    n = coo.n_rows
    pools = {
        "spmv": rng.standard_normal((cfg["spmv_pool"], n)),
        "cg": rng.standard_normal((cfg["cg_pool"], n)),
    }
    refs = _serve_references(run, oracle, entry, pools, TOL)

    def draw(count):
        """``count`` (kind, vector) pairs: one CG request at a seeded
        place in every block of ``1 / cg_fraction`` requests, so that
        every stretch of the run carries the configured mix."""
        block = round(1 / cfg["cg_fraction"])
        cg_at = rng.integers(block, size=count // block + 1)
        pairs = []
        for i in range(count):
            kind = "cg" if i % block == cg_at[i // block] else "spmv"
            pairs.append((kind, int(rng.integers(len(pools[kind])))))
        return pairs

    # A Poisson process conditioned on its count: sorted uniform times.
    open_s = seconds * OPEN_SHARE
    arrivals = np.sort(
        rng.uniform(0.0, open_s, round(cfg["rate_rps"] * open_s))
    )
    schedule = list(zip(arrivals, draw(len(arrivals))))
    closed_s = seconds - open_s
    closed_seq = iter(enumerate(
        draw(int(2000 * seconds)), start=len(schedule)
    ))
    lags = []

    async def drive():
        server = server_mod.SolverServer(registry)

        async def issue(rid, kind, vi, due):
            """Latency from ``due`` in ms, or None on a failure."""
            vec = pools[kind][vi][:]  # a fresh view: one id per request
            if rec is not None:
                rec.rid_of_vec[id(vec)] = rid
            run.attempted += 1
            try:
                if kind == "spmv":
                    resp = await server.spmv(entry.key, vec)
                else:
                    resp = await server.cg(entry.key, vec, tol=TOL)
            except Exception as exc:  # typed refusal/expiry/execution
                run.fail(f"request {rid} ({kind})", repr(exc))
                return None
            latency = (perf_counter() - due) * 1e3
            with bench_span(rec, "bench.oracle"):
                ref = refs[kind, vi]
                same = (
                    np.array_equal(resp.y, ref) if kind == "spmv" else (
                        np.array_equal(resp.x, ref.x)
                        and resp.result.iterations == ref.iterations
                        and bool(resp.result.converged)
                    )
                )
            if not same:
                run.fail(f"request {rid} ({kind})",
                         "differs from serial_compute")
                return None
            return latency

        async def open_loop(segment):
            """The arrivals of one open-loop segment, timed from due."""
            width = open_s / SEGMENTS
            start = perf_counter() - segment * width
            tasks = []
            for rid, (offset, (kind, vi)) in enumerate(schedule):
                if not segment * width <= offset < (segment + 1) * width:
                    continue
                due = start + offset
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append((perf_counter() - due) * 1e3)
                tasks.append((rid, kind, asyncio.create_task(
                    issue(rid, kind, vi, due)
                )))
            for rid, kind, task in tasks:
                latency = await task
                if latency is not None:
                    (run.spmv_ms if kind == "spmv" else run.solve_ms).append(
                        latency
                    )
                    run.layer["requests"].append((rid, latency))

        async def closed_loop():
            """Requests completed per second by the closed-loop clients
            over one segment."""
            end = perf_counter() + closed_s / SEGMENTS
            completed = 0

            async def client():
                nonlocal completed
                for rid, (kind, vi) in closed_seq:
                    if perf_counter() >= end:
                        return
                    if await issue(rid, kind, vi, perf_counter()) is not None:
                        completed += 1

            t = perf_counter()
            await asyncio.gather(*(
                client() for _ in range(CLIENTS)
            ))
            return completed, perf_counter() - t

        try:
            done, busy = 0, 0.0
            for segment in range(SEGMENTS):
                await open_loop(segment)
                pause(2 * segment + 1)
                n_done, elapsed = await closed_loop()
                done, busy = done + n_done, busy + elapsed
                pause(2 * segment + 2)
            return done / busy
        finally:
            await server.close()

    def pause(index):
        """Between segments, with no request in flight: serial CG solves
        and, at evenly spaced pauses, one more set-up, so that both
        sample the host across the whole run. The serial solves are the
        benchmark's baseline, not served work: their spans go to
        ``bench.baseline``."""
        due = 1 + (setup_repeats - 1) * index // (2 * SEGMENTS)
        if len(run.setup_s) < due:
            _m, extra_registry, extra_executor, _e = setup()
            extra_registry.close()
            extra_executor.close()
        with bench_span(rec, "bench.baseline"):
            _serial_cg(
                run, oracle, entry, pools, refs, TOL, cfg["serial_probe"]
            )

    run.layer["requests"] = []
    try:
        t0 = perf_counter_ns()
        run.peak_rps = asyncio.run(drive())
        run.end_measuring(t0)
        run.layer["lag_ms"] = lags
        run.layer.update(_probe_inputs(
            oracle, matrix.size_bytes(), n, p, work, seed
        ))
    finally:
        registry.close()
        executor.close()
    return run


def _serve_references(run, oracle, entry, pools, tol) -> dict:
    """``serial_compute`` of every pool vector: the bit-identity
    reference each response is compared with on arrival. Each SpMxV
    reference is itself checked against scipy's ``A @ x``."""
    refs = {}
    for vi, vec in enumerate(pools["spmv"]):
        ref = refs["spmv", vi] = server_mod.serial_compute(
            entry, "spmv", (), vec
        )
        if not oracle.multiplies(vec, ref):
            run.fail(f"serial spmv {vi}", "differs from scipy A @ x")
    _serial_cg(run, oracle, entry, pools, refs, tol, len(pools["cg"]))
    run.layer["iters"] = int(refs["cg", 0].iterations)
    return refs


def _serial_cg(run, oracle, entry, pools, refs, tol, count) -> None:
    """Time ``serial_compute`` on the first ``count`` CG pool vectors
    (``serial_solve_ms``). The first solve of a vector becomes its
    reference, checked against the true residual; later ones must
    repeat it bit for bit."""
    for vi in range(count):
        vec = pools["cg"][vi]
        t = perf_counter()
        res = server_mod.serial_compute(entry, "cg", (float(tol), None), vec)
        run.serial_solve_ms.append((perf_counter() - t) * 1e3)
        ref = refs.setdefault(("cg", vi), res)
        if ref is res:
            _check_solve(run, oracle, f"serial cg {vi}", res, vec, tol)
        elif not np.array_equal(res.x, ref.x):
            run.fail(f"serial cg {vi}", "serial_compute is not repeatable")


# ----------------------------------------------------------------------
# ooc_cg
# ----------------------------------------------------------------------
def ooc_cg(cfg: dict, seed: int, seconds: float, rec, work: Path,
           setup_repeats: int) -> Run:
    run = Run()
    p = n_threads()
    coo = suite.get_entry("thermal2").build(scale=cfg["scale"], seed=seed)
    oracle = Oracle(coo)
    source = work / "matrix.mtx"
    mmio.write_matrix_market(source, coo, symmetric=True)  # input, untimed
    executor = executor_mod.Executor("threads", max_workers=p)

    def setup(shard_dir):
        shutil.rmtree(shard_dir, ignore_errors=True)
        t = perf_counter()
        store = ooc.ingest_matrix_market(
            source, shard_dir, n_shards=N_SHARDS
        )
        budget = int(store.total_payload_bytes() * BUDGET_FRACTION)
        op = ooc.ShardedOperator(
            store, memory_budget=budget, n_threads=p,
            reduction=REDUCTION, executor=executor,
        )
        run.setup_s.append(perf_counter() - t)
        return store, budget, op

    def extra_setup():
        setup(work / "extra_shards")[2].close()
        shutil.rmtree(work / "extra_shards")

    store, budget, op = setup(work / "shards")
    # The p = 1 in-core baseline of the same system (not part of set-up).
    matrix, parts = configs.build_format(coo, "sss", 1)
    serial = spmv_mod.ParallelSymmetricSpMV(
        matrix, parts, REDUCTION,
        executor=executor_mod.Executor("serial"),
    ).bind()
    rng = np.random.default_rng(seed)
    timed = _timed(op, run.spmv_ms)
    try:
        t0 = perf_counter_ns()
        deadline = t0 + seconds * 1e9
        i = 0
        while True:
            b = rng.standard_normal(coo.n_rows)
            if rec is not None:
                rec.set_rid(i)
            ck_dir = work / f"checkpoints{i}"
            t = perf_counter()
            sol = ooc.checkpointed_cg(
                timed, b, tol=TOL,
                store=ooc_checkpoint.CheckpointStore(ck_dir),
                checkpoint_every=CHECKPOINT_EVERY,
            )
            dt = perf_counter() - t
            shutil.rmtree(ck_dir, ignore_errors=True)
            run.attempted += 1
            run.solve_ms.append(dt * 1e3)
            with bench_span(rec, "bench.oracle"):
                _check_solve(
                    run, oracle, f"out-of-core solve {i}", sol.result, b, TOL
                )
            sdt = 0.0
            for r in range(BASELINE_REPEATS):
                t = perf_counter()
                sres = cg_mod.conjugate_gradient(serial, b, tol=TOL)
                elapsed = perf_counter() - t
                sdt += elapsed
                run.attempted += 1
                run.serial_solve_ms.append(elapsed * 1e3)
                with bench_span(rec, "bench.oracle"):
                    _check_solve(
                        run, oracle, f"in-core solve {i}.{r}", sres, b, TOL
                    )
            if i == 0:
                run.layer["iters"] = int(sol.result.iterations)
            i += 1
            while _setup_due(run, setup_repeats, t0, seconds):
                extra_setup()
            if perf_counter_ns() + (dt + sdt) * 1e9 > deadline:
                break
        while len(run.setup_s) < setup_repeats:
            extra_setup()
        run.end_measuring(t0)
        if rec is not None:
            rec.set_rid(None)
        run.peak_rps = len(run.solve_ms) / (sum(run.solve_ms) / 1e3)
        run.layer["n_shards"] = store.n_shards
        run.layer["peak_resident_bytes"] = op.peak_resident_bytes
        run.layer.update(_probe_inputs(
            oracle, budget, coo.n_rows, p, work, seed
        ))
    finally:
        serial.close()
        op.close()
        executor.close()
    return run


WORKLOADS = {
    "cg_thermal2": cg_thermal2,
    "serve_mixed": serve_mixed,
    "ooc_cg": ooc_cg,
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
