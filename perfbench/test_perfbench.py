"""The benchmark's own tests, at tiny sizes.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench  # noqa: E402
from tracing import (  # noqa: E402
    Installed, Recorder, Span, layer_shares, own_work, self_times,
)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD = json.loads((HERE / "record.json").read_text())
TINY_SCALE = {"cg_thermal2": 0.002, "serve_mixed": 0.002, "ooc_cg": 0.004}


def tiny_record() -> dict:
    record = copy.deepcopy(RECORD)
    for name, entry in record["workloads"].items():
        cfg = entry["config"]
        cfg["scale"] = TINY_SCALE[name]
        cfg["setup_repeats"] = 2
        if name == "serve_mixed":
            cfg.update(rate_rps=200, spmv_pool=8, cg_pool=4, cg_fraction=0.2,
                       serial_probe=1)
    return record


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(RECORD["workloads"]))
def test_every_workload_emits_every_metric(workload, trace, capsys):
    rc = bench.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.6",
         "--trace", str(trace)],
        record=tiny_record(),
    )
    out = capsys.readouterr().out
    doc = json.loads(out.strip().splitlines()[-1])
    assert rc == 0
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: (m["unit"]) for name, m in doc["metrics"].items()
    } == {m["name"]: m["unit"] for m in spec}
    for name, m in doc["metrics"].items():
        assert np.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())
        for name in bench.PRINTED_ONLY:
            assert f"  {name} " in out


def test_oracle_fails_the_run_on_a_corrupted_response(monkeypatch, capsys):
    from repro.serve import server

    original = server.SolverServer._demux
    corrupted = []

    def demux(self, live, values, k, kind):
        if kind == "spmv" and not corrupted:
            values = list(values)
            values[0] = values[0].copy()
            values[0][0] += 1e-12
            corrupted.append(True)
        return original(self, live, values, k, kind)

    monkeypatch.setattr(server.SolverServer, "_demux", demux)
    rc = bench.main(
        ["--workload", "serve_mixed", "--seed", "3", "--seconds", "0.6",
         "--trace", "0"],
        record=tiny_record(),
    )
    doc = last_json(capsys)
    assert corrupted
    assert rc != 0
    assert doc["correct"] is False and doc["failed"] == 1


def test_oracle_fails_the_run_on_a_corrupted_solution(monkeypatch, capsys):
    from repro.solvers import cg

    original = cg.conjugate_gradient
    corrupted = []

    def solve(*args, **kwargs):
        res = original(*args, **kwargs)
        if not corrupted:
            res.x[len(res.x) // 2] += 1.0
            corrupted.append(True)
        return res

    monkeypatch.setattr(cg, "conjugate_gradient", solve)
    rc = bench.main(
        ["--workload", "cg_thermal2", "--seed", "3", "--seconds", "0.6",
         "--trace", "0"],
        record=tiny_record(),
    )
    doc = last_json(capsys)
    assert corrupted
    assert rc != 0
    assert doc["correct"] is False and doc["failed"] == 1


def test_oracle_fails_the_run_on_a_kernel_fault_shared_with_the_reference(
    monkeypatch, capsys
):
    """A fault in the CSX-Sym kernels reaches the served responses and
    their serial_compute references alike, so only the scipy check of
    the references can see it. Scaling x by 1 + 1e-9 leaves every CG
    solve within its tolerance: the SpMxV references alone fail."""
    from repro.formats.csx.sym import CSXSymMatrix

    for attr in ("spmv_partition", "spmm_partition"):
        original = getattr(CSXSymMatrix, attr)

        def scaled(self, x, *args, _original=original, **kwargs):
            return _original(self, x * (1 + 1e-9), *args, **kwargs)

        monkeypatch.setattr(CSXSymMatrix, attr, scaled)
    record = tiny_record()
    rc = bench.main(
        ["--workload", "serve_mixed", "--seed", "3", "--seconds", "0.6",
         "--trace", "0"],
        record=record,
    )
    captured = capsys.readouterr()
    doc = json.loads(captured.out.strip().splitlines()[-1])
    pool = record["workloads"]["serve_mixed"]["config"]["spmv_pool"]
    assert rc != 0
    assert doc["correct"] is False and doc["failed"] == pool
    assert captured.err.count("differs from scipy A @ x") == pool


def test_exits_nonzero_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cg_thermal2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _span(sid, start, end, parent=None, name="formats.kernel"):
    return Span(sid, name, start, end, parent=parent)


def test_self_time_is_duration_minus_children_and_splits_overlap():
    spans = [
        _span(1, 0, 100, name="bound.apply"),
        _span(2, 10, 40, parent=1),            # two partitions that
        _span(3, 30, 60, parent=1),            # overlap for 10 ns
        _span(4, 70, 80, parent=1, name="reduction.reduce"),
    ]
    selfs = self_times(spans, 0, 120)
    assert selfs["bound.apply"] == 100 - (50 + 10)
    assert selfs["formats.kernel"] == 20 + 10 + 20
    assert selfs["reduction.reduce"] == 10
    assert selfs["unspanned"] == 20
    assert sum(selfs.values()) == 120


def _union_ns(spans, t0, t1) -> int:
    """Measure of the union of the spans' intervals inside [t0, t1)."""
    total, reach = 0, t0
    clipped = sorted((max(s.start, t0), min(s.end, t1)) for s in spans)
    for start, end in clipped:
        if end > max(start, reach):
            total += end - max(start, reach)
            reach = end
    return total


@pytest.mark.parametrize("workload", sorted(RECORD["workloads"]))
def test_traced_self_times_reconcile_to_the_wall_clock(workload, tmp_path):
    cfg = tiny_record()["workloads"][workload]["config"]
    rec = Recorder()
    with Installed(rec):
        run = workloads.WORKLOADS[workload](cfg, 3, 1.0, rec, tmp_path, 2)
    assert not run.failures
    t0, t1 = run.window
    spans = own_work(rec.spans)
    selfs = self_times(spans, t0, t1)
    # True by construction: the sweep hands out every instant once.
    assert sum(selfs.values()) == pytest.approx(t1 - t0, rel=1e-9)
    # Not by construction: the time the sweep gives to spans is the
    # time some span was open, and no span name gets more self time
    # than its spans lasted.
    spanned = sum(ns for name, ns in selfs.items() if name != "unspanned")
    assert spanned == pytest.approx(_union_ns(spans, t0, t1), rel=0.01)
    for name, ns in selfs.items():
        if name != "unspanned":
            lasted = _union_ns([s for s in spans if s.name == name], t0, t1)
            assert ns <= lasted * 1.0001, name
    if workload == "cg_thermal2":
        # The layer spans, not the remainder, account for the solves.
        assert selfs["unspanned"] < 0.05 * (t1 - t0)


def test_benchmark_spans_hide_the_program_work_under_them():
    spans = [
        _span(1, 0, 100, name="bench.baseline"),
        _span(2, 10, 90, parent=1, name="solvers.block_cg"),
        _span(3, 20, 40, parent=2),
        _span(4, 100, 120),
    ]
    own = own_work(spans)
    assert [s.id for s in own] == [1, 4]
    selfs = self_times(own, 0, 120)
    assert layer_shares(selfs)["bench"] == pytest.approx(100 / 120)


def test_layer_shares_cover_every_layer():
    shares = layer_shares({"formats.kernel": 3.0, "unspanned": 1.0})
    assert shares["formats"] == 0.75 and shares["unspanned"] == 0.25
    assert sum(shares.values()) == 1.0
