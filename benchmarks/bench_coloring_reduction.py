"""Conflict-free coloring vs the local-vector reductions (RCM suite).

The coloring strategy removes the reduction phase entirely: color
classes execute class-at-a-time with direct writes into ``y``, so no
local vectors are allocated, zeroed, or reduced. What it buys and what
it costs is measured here, per RCM-reordered suite matrix, against all
three local-vector strategies:

* measured per-application wall-clock (p50/p95) through the symmetric
  driver on a thread-pool executor at ``p`` workers,
* the *measured* traffic counters from ``repro.obs`` — for coloring the
  ``reduce.rows_touched`` counter must be exactly zero (enforced
  unconditionally, any host), and ``coloring.classes`` /
  ``coloring.barrier_waits`` report the schedule shape,
* the analytic machine model's totals for the same configurations
  (DUNNINGTON, caches shrunk by ``machine_scale``), barrier term
  included.

Machine-readable output goes to ``results/BENCH_coloring.json``. The
wall-clock acceptance gate — coloring not slower than the best
local-vector strategy at ``p >= 2`` — only applies where parallel
hardware exists: hosts with fewer than ``GATE_MIN_CORES`` cores record
``gate.status = "skipped-single-core"`` honestly, exactly like
``bench_scaling.py``. The zero-reduction traffic check is never
skipped.

Runs standalone (``python benchmarks/bench_coloring_reduction.py``,
``--quick`` for the CI configuration) or under pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    MATRIX_NAMES,
    SCALE,
    built_format_reordered,
    timed_repeat,
    write_result,
)
from repro.machine import DUNNINGTON, predict_spmv  # noqa: E402
from repro.obs import Tracer, tracing  # noqa: E402
from repro.parallel import Executor, ParallelSymmetricSpMV  # noqa: E402

STRATEGIES = ("naive", "effective", "indexed", "coloring")
LOCAL_VECTOR = ("naive", "effective", "indexed")
FORMAT = "sss"
WORKERS = 2                 # the smallest p where reduction cost exists
REPEATS = 5
QUICK_REPEATS = 3
GATE_MIN_CORES = 2          # "not slower at p >= 2" needs >= 2 cores
GATE_TOLERANCE = 0.95       # 5% wall-clock noise allowance
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Counters every row records (absent counters default to 0).
COUNTER_KEYS = (
    "reduce.rows_touched",
    "reduce.rows_budget",
    "coloring.classes",
    "coloring.barrier_waits",
    "traffic.stream_bytes",
)


def bench_names(quick: bool) -> list[str]:
    return MATRIX_NAMES[:2] if quick else list(MATRIX_NAMES)


def measure_one(name: str, strategy: str, repeats: int) -> dict:
    """One (matrix, strategy) row: wall-clock + measured counters."""
    matrix, parts = built_format_reordered(name, FORMAT, WORKERS)
    rng = np.random.default_rng(42)
    x = rng.standard_normal(matrix.n_cols)
    serial = ParallelSymmetricSpMV(matrix, parts, strategy)(x)
    assert np.allclose(serial, matrix.spmv(x)), (
        f"{strategy} driver diverged from the serial kernel on {name}"
    )
    ex = Executor("threads", max_workers=WORKERS)
    try:
        drv = ParallelSymmetricSpMV(matrix, parts, strategy, executor=ex)
        assert np.array_equal(drv(x), serial), (
            f"{strategy} on threads not bit-identical on {name}"
        )
        tracer = Tracer(enabled=True)
        with tracing(tracer):
            drv(x)
        m = tracer.metrics
        stats = timed_repeat(lambda: drv(x), repeats=repeats)
    finally:
        ex.close()
    pred = predict_spmv(
        matrix, parts, DUNNINGTON, reduction=strategy,
        machine_scale=SCALE,
    )
    return {
        "matrix": name,
        "strategy": strategy,
        "workers": WORKERS,
        "p50_ms": stats["p50_ms"],
        "p95_ms": stats["p95_ms"],
        "counters": {
            key: m.counter_value(key) for key in COUNTER_KEYS
        },
        "model": {
            "t_total": pred.total,
            "t_mult": pred.t_mult,
            "t_reduce": pred.t_reduce,
            "t_barrier": pred.t_barrier,
            "mult_bytes": pred.mult_bytes,
            "reduce_bytes": pred.reduce_bytes,
        },
    }


def check_zero_reduction(rows) -> list[str]:
    """The tentpole property: coloring rows must show *measured*
    ``reduce.*`` traffic of exactly zero and a real schedule."""
    problems = []
    for r in rows:
        if r["strategy"] != "coloring":
            continue
        c = r["counters"]
        if c["reduce.rows_touched"] != 0.0:
            problems.append(
                f"{r['matrix']}: coloring touched "
                f"{c['reduce.rows_touched']:.0f} reduction rows"
            )
        if r["model"]["reduce_bytes"] != 0.0:
            problems.append(
                f"{r['matrix']}: model charges coloring "
                f"{r['model']['reduce_bytes']:.0f} reduction bytes"
            )
        if c["coloring.classes"] < 1 or c["coloring.barrier_waits"] < 1:
            problems.append(
                f"{r['matrix']}: coloring schedule reported "
                f"{c['coloring.classes']:.0f} classes / "
                f"{c['coloring.barrier_waits']:.0f} barriers"
            )
    return problems


def evaluate_gate(rows, host_cores: int) -> dict:
    """Coloring vs best local-vector wall-clock, or an honest skip."""
    if host_cores < GATE_MIN_CORES:
        return {
            "status": "skipped-single-core",
            "detail": (
                f"host has {host_cores} core(s); the not-slower-than-"
                f"local-vectors gate needs >= {GATE_MIN_CORES} cores "
                "to be physically meaningful"
            ),
            "host_cores": host_cores,
        }
    by_matrix: dict[str, dict[str, float]] = {}
    for r in rows:
        by_matrix.setdefault(r["matrix"], {})[r["strategy"]] = r["p50_ms"]
    ratios = []
    for name, t in by_matrix.items():
        if "coloring" not in t:
            continue
        best_local = min(t[s] for s in LOCAL_VECTOR if s in t)
        ratios.append(best_local / t["coloring"])
    if not ratios:
        return {"status": "skipped-no-data"}
    geomean = float(np.exp(np.mean(np.log(ratios))))
    return {
        "status": "pass" if geomean >= GATE_TOLERANCE else "fail",
        "best_local_vs_coloring": geomean,
        "target": GATE_TOLERANCE,
        "workers": WORKERS,
        "host_cores": host_cores,
    }


def render(rows, gate) -> str:
    lines = [
        f"Coloring vs local-vector reductions — RCM suite, {FORMAT}, "
        f"p={WORKERS} threads, p50 per application",
        "",
        f"{'matrix':<16} {'strategy':<10} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'red.rows':>9} {'classes':>8} {'barriers':>9} "
        f"{'model us':>9}",
    ]
    for r in rows:
        c = r["counters"]
        lines.append(
            f"{r['matrix']:<16} {r['strategy']:<10} "
            f"{r['p50_ms']:>8.3f} {r['p95_ms']:>8.3f} "
            f"{c['reduce.rows_touched']:>9.0f} "
            f"{c['coloring.classes']:>8.0f} "
            f"{c['coloring.barrier_waits']:>9.0f} "
            f"{1e6 * r['model']['t_total']:>9.1f}"
        )
    lines.append("")
    lines.append(f"gate: {json.dumps(gate)}")
    return "\n".join(lines)


def write_json(rows, gate, config) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_coloring.json"
    path.write_text(json.dumps(
        {"config": config, "measured": rows, "gate": gate},
        indent=2,
    ) + "\n")
    print(f"[json written to {path}]")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="two matrices and fewer repeats (CI configuration)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (
        QUICK_REPEATS if args.quick else REPEATS
    )
    if repeats < 1:
        parser.error("--repeats must be >= 1")

    host_cores = os.cpu_count() or 1
    rows = [
        measure_one(name, strategy, repeats)
        for name in bench_names(args.quick)
        for strategy in STRATEGIES
    ]
    problems = check_zero_reduction(rows)
    gate = evaluate_gate(rows, host_cores)
    config = {
        "quick": args.quick,
        "format": FORMAT,
        "workers": WORKERS,
        "repeats": repeats,
        "scale": SCALE,
        "host_cores": host_cores,
        "matrices": bench_names(args.quick),
    }
    write_json(rows, gate, config)
    text = render(rows, gate)
    write_result("coloring", text)
    if problems:
        for p in problems:
            print(f"ZERO-REDUCTION VIOLATION: {p}", file=sys.stderr)
        return 1
    return 0 if gate["status"] in (
        "pass", "skipped-single-core",
    ) else 1


# -- pytest entry point (collected with the other wall-clock benches) --
def test_coloring_reduction_smoke(tmp_path, monkeypatch):
    """Zero-reduction counters + artifact; never the wall-clock gate
    (CI runners make no core promises)."""
    monkeypatch.setattr(sys.modules[__name__], "RESULTS_DIR", tmp_path)
    rc = main(["--quick", "--repeats", "1"])
    payload = json.loads((tmp_path / "BENCH_coloring.json").read_text())
    assert rc == 0 or payload["gate"]["status"] == "fail"
    coloring_rows = [
        r for r in payload["measured"] if r["strategy"] == "coloring"
    ]
    assert coloring_rows
    for r in coloring_rows:
        assert r["counters"]["reduce.rows_touched"] == 0.0
        assert r["counters"]["coloring.classes"] >= 1
        assert r["counters"]["coloring.barrier_waits"] >= 1
        assert r["model"]["t_reduce"] == 0.0
    assert payload["gate"]["status"] in (
        "pass", "fail", "skipped-single-core", "skipped-no-data",
    )


if __name__ == "__main__":
    raise SystemExit(main())
