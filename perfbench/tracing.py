"""Spans recorded from outside the program, and self-time attribution.

The traced run wraps the public entry points of each layer (see
``entry_points``) in a timing wrapper. Every call becomes one span with
a name, start, end, parent and request id; spans stay in memory and are
written out when the run ends. The wrappers must be installed *before*
set-up: a bound operator captures its kernel methods when it is bound.

Self time follows one rule: at every instant of the traced window the
wall clock belongs to the innermost open spans -- those with no open
child. Where spans on several threads are innermost at once (the
partitions of one batch, or two server batches) the instant is split
evenly among them. In nested single-thread code this is exactly "span
duration minus the union of its children"; across threads it keeps the
per-layer shares summing to the traced wall clock. Time covered by no
span is reported as ``unspanned`` (harness, event loop, idle).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Optional

#: Span name -> layer; a layer's self time is the sum over its spans.
LAYER_OF = {
    "formats.kernel": "formats",
    "executor.run_batch": "executor",
    "executor.task": "executor",
    "reduction.reduce": "reduction",
    "bound.apply": "bound",
    "solvers.cg": "solvers",
    "solvers.block_cg": "solvers",
    "solvers.vecops": "solvers",
    "serve.compute": "serve",
    "ooc.solve": "ooc",
    "ooc.apply": "ooc",
    "ooc.load": "ooc",
    "ooc.checkpoint": "ooc",
    "setup.build": "setup",
    "setup.bind": "setup",
    "setup.ingest": "setup",
    "setup.register": "setup",
    "bench.oracle": "bench",
    "bench.baseline": "bench",
}
LAYERS = (
    "formats", "executor", "reduction", "bound", "solvers", "serve",
    "ooc", "setup", "bench", "unspanned",
)


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int = 0
    parent: Optional[int] = None
    thread: int = 0
    rid: object = None
    attrs: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(request vector) -> request id, filled by the serving
        #: workload so that server batches carry their requests' ids.
        self.rid_of_vec: dict[int, object] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_rid(self, rid) -> None:
        """Request id given to root spans opened on this thread."""
        self._local.rid = rid

    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rid = parent.rid if parent is not None else getattr(
            self._local, "rid", None
        )
        span = Span(
            next(self._ids), name, perf_counter_ns(),
            parent=None if parent is None else parent.id,
            thread=threading.get_ident(), rid=rid,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent,
                    "thread": s.thread, "rid": s.rid, "attrs": s.attrs,
                }, default=str) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(rec: Recorder, fn, name: str, info=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if info is not None:
            info(rec, span, args, kwargs, result)
        return result
    return wrapper


def _wrap_run_batch(rec: Recorder, fn):
    """``Executor.run_batch``: each task runs inside an ``executor.task``
    span parented to the batch span, on whichever thread executes it."""
    @functools.wraps(fn)
    def run_batch(self, tasks, *args, **kwargs):
        span = rec.open("executor.run_batch")
        span.attrs["mode"] = self.mode

        def adopt(task):
            def run():
                child = rec.open("executor.task", parent=span)
                try:
                    task()
                finally:
                    rec.close(child)
            return run

        try:
            return fn(self, [adopt(t) for t in tasks], *args, **kwargs)
        finally:
            rec.close(span)
    return run_batch


def _kernel_info(rec, span, args, kwargs, result):
    """Computed bytes of one partition kernel call: the partition's
    matrix arrays plus x, y read and y written over its rows."""
    matrix, x, _yd, _yl, start, end = args[:6]
    k = 1 if x.ndim == 1 else x.shape[1]
    rows = end - start

    rowptr = getattr(matrix, "rowptr", None)
    if rowptr is not None:  # SSS: the partition's stored entries exactly
        stored = int(rowptr[end] - rowptr[start])
        mbytes = (
            stored * (matrix.values.itemsize + matrix.colind.itemsize)
            + rows * (matrix.dvalues.itemsize + rowptr.itemsize)
        )
    else:  # CSX-Sym: the encoded size, pro rata by rows
        mbytes = matrix.size_bytes() * rows / max(1, matrix.n_rows)
    span.attrs["bytes"] = mbytes + 3 * 8 * k * rows
    span.attrs["k"] = k


def _reduce_info(rec, span, args, kwargs, result):
    reduction, y = args[0], args[1]
    k = 1 if y.ndim == 1 else y.shape[1]
    span.attrs["elements"] = reduction.footprint(k).reduction_writes


def _bound_info(rec, span, args, kwargs, result):
    span.attrs["k"] = args[0].k or 1


def _ooc_apply_info(rec, span, args, kwargs, result):
    x = args[1]
    span.attrs["k"] = 1 if x.ndim == 1 else x.shape[1]


def _ooc_load_info(rec, span, args, kwargs, result):
    store, index = args[0], args[1]
    span.attrs["bytes"] = store.shards[index].n_bytes


def _cg_info(rec, span, args, kwargs, result):
    span.attrs["iters"] = int(result.iterations)


def _block_cg_info(rec, span, args, kwargs, result):
    span.attrs["iters"] = int(result.iterations)
    span.attrs["k"] = int(result.X.shape[1])


def _ooc_solve_info(rec, span, args, kwargs, result):
    span.attrs["iters"] = int(result.result.iterations)


def _wrap_serve_compute(rec, fn):
    """``SolverServer._compute`` (the batch body run on a worker
    thread): the span carries the batch's request ids."""
    @functools.wraps(fn)
    def compute(self, entry, kind, params, live, opk):
        rec.set_rid(tuple(rec.rid_of_vec.get(id(r.vec)) for r in live))
        span = rec.open("serve.compute")
        span.attrs["kind"] = kind
        span.attrs["k"] = len(live)
        try:
            return fn(self, entry, kind, params, live, opk)
        finally:
            rec.close(span)
            rec.set_rid(None)
    return compute


def entry_points():
    """(owner, attribute, wrapper factory) for every traced entry point.
    Module-level functions are patched in every ``repro`` module that
    imported them by name."""
    from repro.analysis import configs
    from repro.formats.csx.sym import CSXSymMatrix
    from repro.formats.sss import SSSMatrix
    from repro.ooc import checkpoint, cg as ooc_cg, operator, shards
    from repro.parallel import bound, executor, reduction, spmv
    from repro.serve import registry, server
    from repro.solvers import block_cg, cg, vecops

    def span(name, info=None):
        return lambda rec, fn: _wrap(rec, fn, name, info)

    points = []
    for cls in (SSSMatrix, CSXSymMatrix):
        for attr in ("spmv_partition", "spmm_partition"):
            points.append((cls, attr, span("formats.kernel", _kernel_info)))
    points.append((executor.Executor, "run_batch", _wrap_run_batch))
    for cls in reduction.ReductionMethod.__subclasses__():
        if "reduce" in vars(cls):
            points.append(
                (cls, "reduce", span("reduction.reduce", _reduce_info))
            )
    points.append(
        (bound.BoundOperator, "__call__", span("bound.apply", _bound_info))
    )
    for attr in ("dot", "norm2", "axpy", "xpay", "copy", "scale"):
        points.append((vecops.VectorOps, attr, span("solvers.vecops")))
    functions = [
        (cg.conjugate_gradient, span("solvers.cg", _cg_info)),
        (block_cg.block_conjugate_gradient,
         span("solvers.block_cg", _block_cg_info)),
        (ooc_cg.checkpointed_cg, span("ooc.solve", _ooc_solve_info)),
        (configs.build_format, span("setup.build")),
        (shards.ingest_matrix_market, span("setup.ingest")),
    ]
    modules = [
        m for name, m in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    for fn, factory in functions:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    points.append((module, attr, factory))
    points += [
        (server.SolverServer, "_compute", _wrap_serve_compute),
        (operator.ShardedOperator, "__call__",
         span("ooc.apply", _ooc_apply_info)),
        (shards.ShardStore, "load", span("ooc.load", _ooc_load_info)),
        (checkpoint.CheckpointStore, "save", span("ooc.checkpoint")),
        (spmv.ParallelSymmetricSpMV, "bind", span("setup.bind")),
        (registry.OperatorRegistry, "register", span("setup.register")),
    ]
    return points


class Installed:
    """Context manager: wrap every entry point, restore on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list = []

    def __enter__(self) -> Recorder:
        for owner, attr, factory in entry_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(self.rec, original))
        return self.rec

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def own_work(spans: list[Span]) -> list[Span]:
    """``spans`` without those nested under a benchmark span
    (``bench.*``): the benchmark's own work, such as a reference solve
    that calls into the program, then counts as ``bench`` self time and
    adds nothing to the program's layers."""
    by_id = {s.id: s for s in spans}
    hidden: dict[int, bool] = {}

    def under_bench(s: Span) -> bool:
        h = hidden.get(s.id)
        if h is None:
            parent = by_id.get(s.parent)
            h = parent is not None and (
                parent.name.startswith("bench.") or under_bench(parent)
            )
            hidden[s.id] = h
        return h

    return [s for s in spans if not under_bench(s)]


def self_times(spans: list[Span], t0: int, t1: int) -> dict[str, float]:
    """Self time in ns per span name over the window ``[t0, t1)``,
    plus ``"unspanned"`` for instants no span covers; the values sum to
    ``t1 - t0``. See the module docstring for the rule."""
    inside = [
        s for s in spans if s.end > t0 and s.start < t1 and s.end > s.start
    ]
    by_id = {s.id: s for s in inside}
    depth: dict[int, int] = {}

    def depth_of(s: Span) -> int:
        d = depth.get(s.id)
        if d is None:
            parent = by_id.get(s.parent)
            d = 0 if parent is None else depth_of(parent) + 1
            depth[s.id] = d
        return d

    events = []
    for s in inside:
        d = depth_of(s)
        # Ends before starts at one instant; parents open before and
        # close after their children.
        events.append((max(s.start, t0), 1, d, s.id))
        events.append((min(s.end, t1), 0, -d, s.id))
    events.sort()
    out: dict[str, float] = {"unspanned": 0.0}
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    now = t0
    for t, is_start, _d, sid in events:
        if t > now:
            dt = t - now
            if leaves:
                share = dt / len(leaves)
                for leaf in leaves:
                    name = by_id[leaf].name
                    out[name] = out.get(name, 0.0) + share
            else:
                out["unspanned"] += dt
            now = t
        span = by_id[sid]
        parent = span.parent if span.parent in by_id else None
        if is_start:
            open_children[sid] = 0
            leaves.add(sid)
            if parent is not None and parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_children.pop(sid, None)
            leaves.discard(sid)
            if parent is not None and parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    out["unspanned"] += t1 - now
    return out


def layer_shares(selfs: dict[str, float]) -> dict[str, float]:
    """Fraction of the window per layer (every layer present)."""
    total = sum(selfs.values()) or 1.0
    shares = {layer: 0.0 for layer in LAYERS}
    for name, ns in selfs.items():
        layer = "unspanned" if name == "unspanned" else LAYER_OF[name]
        shares[layer] += ns / total
    return shares
