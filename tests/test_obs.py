"""Unit tests for the observability layer itself (``repro.obs``):
tracer semantics, disabled-mode no-ops, thread safety of the
per-thread buffers, statistics helpers, warning counters and the
exporter round-trip. Counters live in the tracer's metrics registry
(``t.metrics``); the tracer itself records spans and events only."""

import gc
import json
import threading
import warnings

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA,
    Tracer,
    active,
    chrome_events,
    load_trace,
    metrics_report,
    percentile,
    reset_warning_counts,
    set_active,
    summarize,
    summarize_ns,
    text_report,
    trace_document,
    tracing,
    validate_trace,
    warn,
    warning_counts,
    write_trace,
)
from repro.formats import SSSMatrix
from repro.matrices.generators import grid_laplacian_2d
from repro.parallel import ParallelSymmetricSpMV, partition_rows_equal


# ---------------------------------------------------------------------
# Disabled mode: the no-op identity
# ---------------------------------------------------------------------
def test_default_active_is_null_tracer():
    assert active() is NULL_TRACER
    assert not NULL_TRACER.enabled


def test_disabled_span_is_shared_noop_singleton():
    t = Tracer(enabled=False)
    s1 = t.span("anything", attr=1)
    s2 = t.span("other")
    assert s1 is NULL_SPAN and s2 is NULL_SPAN
    with s1:
        pass  # must be a working context manager
    assert t.events() == []


def test_disabled_count_and_event_record_nothing():
    t = Tracer(enabled=False)
    assert not hasattr(t, "count") and not hasattr(t, "counters")
    t.event("e", detail=1)
    assert t.events() == []
    assert t.metrics.snapshot()["counters"] == []
    assert t.n_threads_seen() == 0


# ---------------------------------------------------------------------
# Recording: spans, nesting, events, counters
# ---------------------------------------------------------------------
def test_span_records_duration_and_name():
    t = Tracer()
    with t.span("work", tag="x"):
        pass
    [(buf, ev)] = t.events()
    assert ev.name == "work"
    assert ev.dur_ns >= 0 and not ev.is_instant
    assert ev.attrs == {"tag": "x"}
    assert buf.ident == threading.get_ident()


def test_span_nesting_depths():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            with t.span("innermost"):
                pass
    by_name = {ev.name: ev for _, ev in t.events()}
    assert by_name["outer"].depth == 0
    assert by_name["inner"].depth == 1
    assert by_name["innermost"].depth == 2
    # Inner spans close first, so durations nest monotonically.
    assert by_name["outer"].dur_ns >= by_name["inner"].dur_ns
    assert by_name["inner"].dur_ns >= by_name["innermost"].dur_ns


def test_instant_events_and_counters():
    t = Tracer()
    t.event("iter", residual=0.5)
    t.metrics.counter("hits").inc()
    t.metrics.counter("hits").inc(2)
    t.metrics.counter("bytes").inc(100.0)
    [(_, ev)] = [(b, e) for b, e in t.events() if e.is_instant]
    assert ev.name == "iter" and ev.attrs == {"residual": 0.5}
    assert t.metrics.counter_value("hits") == 3
    assert t.metrics.counter_value("bytes") == 100.0


def test_clear_drops_data_but_keeps_recording():
    t = Tracer()
    with t.span("a"):
        pass
    t.metrics.counter("c").inc()
    t.clear()
    assert t.events() == [] and t.metrics.snapshot()["counters"] == []
    with t.span("b"):
        pass
    assert [ev.name for _, ev in t.events()] == ["b"]


def test_span_durations_ns_groups_by_name():
    t = Tracer()
    for _ in range(3):
        with t.span("x"):
            pass
    t.event("x-instant")
    durs = t.span_durations_ns()
    assert list(durs) == ["x"] and len(durs["x"]) == 3


# ---------------------------------------------------------------------
# Thread safety: per-thread buffers, no cross-thread interleaving
# ---------------------------------------------------------------------
def test_many_threads_record_without_loss():
    t = Tracer()
    n_threads, n_spans = 8, 200

    def work(i):
        for j in range(n_spans):
            with t.span("w", thread=i):
                t.metrics.counter("spans").inc()

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(n_threads)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert t.n_threads_seen() == n_threads
    assert len(t.events()) == n_threads * n_spans
    assert t.metrics.counter_value("spans") == n_threads * n_spans
    # One buffer per worker, each holding exactly its own spans (the
    # OS may reuse thread idents, so group by buffer, not by ident).
    per_buf = {}
    for buf, ev in t.events():
        per_buf.setdefault(id(buf), []).append(ev)
    assert len(per_buf) == n_threads
    assert all(len(evs) == n_spans for evs in per_buf.values())


# ---------------------------------------------------------------------
# Active-tracer management
# ---------------------------------------------------------------------
def test_tracing_installs_and_restores():
    before = active()
    with tracing() as t:
        assert active() is t and t.enabled
        with t.span("inside"):
            pass
    assert active() is before


def test_tracing_restores_on_exception():
    before = active()
    with pytest.raises(RuntimeError):
        with tracing():
            raise RuntimeError("boom")
    assert active() is before


def test_set_active_none_means_null():
    prev = set_active(None)
    try:
        assert active() is NULL_TRACER
    finally:
        set_active(prev)


# ---------------------------------------------------------------------
# Warning counters (always on)
# ---------------------------------------------------------------------
def test_warn_counts_without_active_tracer():
    reset_warning_counts()
    warn("leak")
    warn("leak", 2)
    assert warning_counts() == {"leak": 3}
    reset_warning_counts()
    assert warning_counts() == {}


def test_warn_mirrors_into_active_tracer():
    reset_warning_counts()
    with tracing() as t:
        warn("leak")
    assert t.metrics.snapshot()["counters"] == [
        {"name": "warn.leak", "labels": {}, "value": 1.0}
    ]
    assert warning_counts() == {"leak": 1}
    reset_warning_counts()


def test_unclosed_bound_operator_warns_on_gc():
    reset_warning_counts()
    sss = SSSMatrix.from_coo(grid_laplacian_2d(8, 8))
    parts = partition_rows_equal(sss.n_rows, 2)
    bound = ParallelSymmetricSpMV(sss, parts, "indexed").bind()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del bound
        gc.collect()
    assert warning_counts().get("bound_operator.unclosed_gc") == 1
    assert any(issubclass(w.category, ResourceWarning) for w in caught)
    reset_warning_counts()


def test_closed_bound_operator_gc_is_silent():
    reset_warning_counts()
    sss = SSSMatrix.from_coo(grid_laplacian_2d(8, 8))
    parts = partition_rows_equal(sss.n_rows, 2)
    bound = ParallelSymmetricSpMV(sss, parts, "indexed").bind()
    bound.close()
    del bound
    gc.collect()
    assert "bound_operator.unclosed_gc" not in warning_counts()


# ---------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------
def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    data = rng.standard_normal(101).tolist()
    for q in (0, 25, 50, 75, 95, 100):
        assert percentile(data, q) == pytest.approx(
            float(np.percentile(data, q))
        )


def test_percentile_edge_cases():
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summarize_ns():
    s = summarize_ns([1e6, 2e6, 3e6, 4e6])
    assert s["count"] == 4
    assert s["total_ms"] == pytest.approx(10.0)
    assert s["mean_ms"] == pytest.approx(2.5)
    assert s["p50_ms"] == pytest.approx(2.5)
    assert s["min_ms"] == 1.0 and s["max_ms"] == 4.0
    with pytest.raises(ValueError):
        summarize_ns([])


# ---------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------
def _recorded_tracer() -> Tracer:
    t = Tracer()
    with t.span("phase", tid=0):
        with t.span("sub"):
            pass
        t.event("tick", i=1)
    t.metrics.counter("bytes").inc(64)
    return t


def test_chrome_events_shape():
    evs = chrome_events(_recorded_tracer())
    phs = [e["ph"] for e in evs]
    assert phs.count("M") == 1       # one thread -> one name record
    assert phs.count("X") == 2 and phs.count("i") == 1
    for e in evs:
        assert {"name", "ph", "pid", "tid"} <= set(e)
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0
    # Metadata first, then by timestamp.
    ts = [e["ts"] for e in evs if "ts" in e]
    assert ts == sorted(ts)


def test_summarize_tracer():
    s = summarize(_recorded_tracer())
    assert set(s["spans"]) == {"phase", "sub"}
    assert s["spans"]["phase"]["count"] == 1
    assert "counters" not in s
    assert s["metrics"]["counters"] == [
        {"name": "bytes", "labels": {}, "value": 64.0}
    ]
    assert s["n_instant_events"] == 1
    assert s["n_threads"] == 1


def test_trace_round_trip_and_validation(tmp_path):
    path = tmp_path / "nested" / "trace.json"
    write_trace(path, _recorded_tracer(), meta={"cmd": "test"})
    doc = load_trace(path)
    assert validate_trace(doc) == []
    assert doc["schema"] == TRACE_SCHEMA
    assert doc["meta"] == {"cmd": "test"}
    # The file is plain JSON a Chrome/Perfetto loader accepts: a dict
    # with a traceEvents list.
    raw = json.loads(path.read_text())
    assert isinstance(raw["traceEvents"], list)


def test_validate_catches_malformed_documents():
    assert validate_trace([]) != []
    assert validate_trace({"schema": "nope"}) != []
    doc = trace_document(_recorded_tracer())
    doc["traceEvents"].append({"name": "bad", "ph": "Z", "pid": 0, "tid": 0})
    assert any("unknown ph" in p for p in validate_trace(doc))
    doc2 = trace_document(_recorded_tracer())
    doc2["summary"]["spans"]["phase"].pop("p95_ms")
    assert any("p95_ms" in p for p in validate_trace(doc2))
    doc3 = trace_document(_recorded_tracer())
    doc3["schema"] = "repro-trace-old"
    assert any("schema" in p for p in validate_trace(doc3))


def test_text_report_from_tracer_and_document():
    t = _recorded_tracer()
    for source in (t, trace_document(t)):
        report = text_report(source, title="T")
        assert "phase" in report and "sub" in report
        assert "bytes" in report
        assert "p50" in report
        # One renderer: the metrics section is metrics_report's output.
        assert metrics_report(t.metrics.snapshot()) in report


def test_obs_package_reexports():
    # The package facade must expose the full tool set.
    for name in ("Tracer", "tracing", "write_trace", "validate_trace",
                 "summarize_ns", "percentile", "text_report"):
        assert hasattr(obs, name)


# ---------------------------------------------------------------------
# Counter tracks and the embedded metrics snapshot
# ---------------------------------------------------------------------
def test_statistics_reject_nan():
    with pytest.raises(ValueError, match="NaN"):
        percentile([1.0, float("nan"), 3.0], 50)
    with pytest.raises(ValueError, match="NaN"):
        summarize_ns([1e6, float("nan")])


def test_chrome_counter_tracks_ramp():
    t = _recorded_tracer()
    evs = chrome_events(t)
    tracks = [e for e in evs if e["ph"] == "C"]
    assert len(tracks) == 2  # one counter -> zero sample + total sample
    assert all(e["name"] == "bytes" for e in tracks)
    by_ts = sorted(tracks, key=lambda e: e["ts"])
    assert by_ts[0]["ts"] == 0.0 and by_ts[0]["args"]["value"] == 0
    assert by_ts[-1]["args"]["value"] == 64
    # The final sample sits at the last span/event timestamp, so the
    # ramp spans the whole timeline.
    last_ts = max(
        e["ts"] + e.get("dur", 0.0) for e in evs if e["ph"] == "X"
    )
    assert by_ts[-1]["ts"] == pytest.approx(last_ts)


def test_trace_round_trips_metrics_snapshot(tmp_path):
    t = _recorded_tracer()
    t.metrics.histogram("op.apply_ns", backend="serial").record_many(
        [100.0, 5000.0]
    )
    t.metrics.counter("applies").inc(2)
    path = write_trace(tmp_path / "trace.json", t)
    doc = load_trace(path)
    assert validate_trace(doc) == []
    assert doc["schema"] == TRACE_SCHEMA == "repro-trace-v3"
    metrics = doc["summary"]["metrics"]
    hist = metrics["histograms"][0]
    assert hist["name"] == "op.apply_ns"
    assert hist["labels"] == {"backend": "serial"}
    assert hist["summary"]["count"] == 2
    assert metrics["counters"] == [
        {"name": "applies", "labels": {}, "value": 2.0},
        {"name": "bytes", "labels": {}, "value": 64.0},
    ]
    # The bucket data reconstructs the histogram exactly.
    from repro.obs import LogHistogram

    back = LogHistogram.from_dict(hist["data"])
    assert back.count == 2 and back.max_seen == 5000.0


def test_validate_requires_metrics_section():
    doc = trace_document(_recorded_tracer())
    del doc["summary"]["metrics"]
    assert any("summary.metrics" in p for p in validate_trace(doc))
    doc2 = trace_document(_recorded_tracer())
    doc2["summary"]["metrics"]["histograms"] = {"not": "a list"}
    assert any(
        "metrics.histograms" in p for p in validate_trace(doc2)
    )
    doc3 = trace_document(_recorded_tracer())
    doc3["summary"]["metrics"]["counters"] = [{"labels": {}}]  # no name
    assert any("needs a name" in p for p in validate_trace(doc3))
    # Malformed counter-track events are caught.
    doc4 = trace_document(_recorded_tracer())
    doc4["traceEvents"].append(
        {"name": "c", "ph": "C", "pid": 0, "tid": 0, "ts": 0.0,
         "args": {"value": "many"}}
    )
    assert any("numeric args" in p for p in validate_trace(doc4))


def test_validate_rejects_non_numeric_counter_value():
    doc = trace_document(_recorded_tracer())
    doc["summary"]["metrics"]["counters"][0]["value"] = "lots"
    assert any(
        "counters[0] needs a numeric value" in p
        for p in validate_trace(doc)
    )


def test_labelled_counter_track_named_with_labels():
    t = _recorded_tracer()
    t.metrics.counter("serve.requests", kind="cg").inc(3)
    tracks = {
        e["name"]: e["args"]["value"]
        for e in chrome_events(t) if e["ph"] == "C" and e["ts"] > 0
    }
    assert tracks == {"bytes": 64.0, "serve.requests{kind=cg}": 3.0}
    assert validate_trace(trace_document(t)) == []
