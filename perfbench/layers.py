"""Per-layer metrics of a traced run, computed from its spans."""

from __future__ import annotations

import statistics

from tracing import Recorder, layer_shares, own_work, self_times
from workloads import Run, median, percentile

APPLY_SPANS = ("bound.apply", "ooc.apply")
SOLVER_SPANS = ("solvers.cg", "solvers.block_cg")


def _dur(span) -> int:
    return span.end - span.start


def per_layer(run: Run, rec: Recorder, tail_pct: dict,
              overhead_frac: float) -> dict[str, float]:
    t0, t1 = run.window
    own = own_work(rec.spans)
    spans = [s for s in own if s.start >= t0 and s.end <= t1]
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)
    by_id = {s.id: s for s in spans}
    selfs = self_times(own, t0, t1)

    def self_ms(*names) -> float:
        return sum(selfs.get(n, 0.0) for n in names) / 1e6

    def count(name) -> int:
        return len(named.get(name, ()))

    probes = run.layer["probes"]
    m: dict[str, float] = {}

    kernels = named.get("formats.kernel", [])
    busy_ns = sum(_dur(s) for s in kernels)
    kbytes = sum(s.attrs["bytes"] for s in kernels)
    col_applies = sum(
        s.attrs["k"] for name in APPLY_SPANS for s in named.get(name, ())
    )
    m["formats.busy_ms"] = busy_ns / 1e6
    m["formats.calls"] = len(kernels)
    m["formats.gbps_computed"] = kbytes / busy_ns if busy_ns else 0.0
    m["formats.bw_frac"] = m["formats.gbps_computed"] / probes[
        "host.triad_gbps"]
    m["formats.vs_compiled"] = (
        m["formats.busy_ms"] / col_applies / probes["host.scipy_spmv_ms"]
        if col_applies else 0.0
    )

    m["executor.batches"] = count("executor.run_batch")
    m["executor.dispatch_ms"] = self_ms("executor.run_batch", "executor.task")
    tasks_of: dict[int, list] = {}
    for s in named.get("executor.task", ()):
        tasks_of.setdefault(s.parent, []).append(s)
    idle = spanned = 0
    for batch in named.get("executor.run_batch", ()):
        tasks = tasks_of.get(batch.id, [])
        if batch.attrs["mode"] == "serial" or len(tasks) < 2:
            continue
        last = max(t.end for t in tasks)
        idle += sum(last - t.end for t in tasks)
        spanned += sum(last - t.start for t in tasks)
    m["executor.imbalance_frac"] = idle / spanned if spanned else 0.0

    m["reduction.ms"] = self_ms("reduction.reduce")
    m["reduction.elements"] = sum(
        s.attrs["elements"] for s in named.get("reduction.reduce", ())
    )

    m["bound.applies"] = count("bound.apply")
    m["bound.self_ms"] = self_ms("bound.apply")

    solver_spans = [s for n in SOLVER_SPANS for s in named.get(n, ())]
    iters = sum(s.attrs["iters"] for s in solver_spans)
    solver_ns = sum(_dur(s) for s in solver_spans)
    spmv_ns = sum(
        _dur(s) for n in APPLY_SPANS for s in named.get(n, ())
        if s.parent in by_id and by_id[s.parent].name in SOLVER_SPANS
    )
    m["solvers.iters"] = run.layer["iters"]
    m["solvers.self_ms_per_iter"] = (
        self_ms(*SOLVER_SPANS, "solvers.vecops") / iters if iters else 0.0
    )
    m["solvers.spmv_share"] = spmv_ns / solver_ns if solver_ns else 0.0

    batches = named.get("serve.compute", [])
    compute_of = {}
    for s in batches:
        for rid in s.rid or ():
            compute_of[rid] = _dur(s) / 1e6
    requests = [
        (latency, compute_of[rid])
        for rid, latency in run.layer.get("requests", ())
        if rid in compute_of
    ]
    m["serve.batches"] = len(batches)
    m["serve.batch_width.mean"] = (
        statistics.fmean(s.attrs["k"] for s in batches) if batches else 0.0
    )
    m["serve.wait_ms.p50"] = median([lat - c for lat, c in requests])
    m["serve.compute_ms.p50"] = median([c for _lat, c in requests])
    m["gen.lag_ms.tail"] = percentile(
        run.layer.get("lag_ms", []), tail_pct["spmv_ms"]
    )

    loads = named.get("ooc.load", [])
    ooc_applies = count("ooc.apply")
    n_shards = run.layer.get("n_shards", 0)
    saves = named.get("ooc.checkpoint", [])
    m["ooc.shard_loads"] = len(loads)
    m["ooc.hit_ratio"] = (
        1.0 - len(loads) / (n_shards * ooc_applies) if ooc_applies else 0.0
    )
    m["ooc.load_ms"] = sum(_dur(s) for s in loads) / 1e6
    m["ooc.bytes_read"] = sum(s.attrs["bytes"] for s in loads)
    m["ooc.rebuild_ms"] = self_ms("ooc.apply")
    m["ooc.checkpoints"] = len(saves)
    m["ooc.checkpoint_ms.p50"] = median([_dur(s) / 1e6 for s in saves])
    m["ooc.peak_resident_bytes"] = run.layer.get("peak_resident_bytes", 0)

    # Set-up happens before the window: medians over the whole run.
    for key, name in (("build", "setup.build"), ("bind", "setup.bind"),
                      ("ingest", "setup.ingest"),
                      ("register", "setup.register")):
        m[f"setup.{key}_ms"] = median(
            [_dur(s) / 1e6 for s in rec.spans if s.name == name]
        )

    m["tail.solve_ms"] = percentile(run.solve_ms, tail_pct["solve_ms"])
    m["tail.spmv_ms"] = percentile(run.spmv_ms, tail_pct["spmv_ms"])
    m.update(probes)
    m["host.working_set_mb"] = run.layer["working_set_bytes"] / 2 ** 20
    m["trace.overhead_frac"] = overhead_frac
    m["trace.wall_ms"] = (t1 - t0) / 1e6
    for layer, share in layer_shares(selfs).items():
        m[f"share.{layer}"] = share
    return m

