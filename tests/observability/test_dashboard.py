"""``repro top``: live-document decoding, frame rendering, the fetch loop.

``parse_live_document`` reads what the endpoint serves (and is what CI runs
against a live one); ``render_top`` is a pure function of two snapshots
tested frame-by-frame; ``run_top`` gets an injected fetcher so the loop
runs without sockets.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, replace

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    Histogram,
    MetricsRegistry,
    WorkerView,
    format_metrics_report,
    render_top,
    run_top,
    to_json_dict,
)
from repro.observability.dashboard import parse_live_document


def _snapshot(reads=1000, recoveries=0):
    reg = MetricsRegistry()
    reg.inc("pipeline.reads", reads)
    reg.inc("seed.reads", reads)
    reg.inc("seed.candidates", reads * 3)
    reg.inc("phmm.forward_cells", reads * 500)
    reg.inc("phmm.backward_cells", reads * 500)
    reg.inc("obs.telemetry_deltas", 17)
    for name in ("mp.chunk_retries", "mp.worker_deaths"):
        if recoveries:
            reg.inc(name, recoveries)
    for seconds in (0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.4, 3.0):
        reg.observe("mp.chunk_map_seconds", seconds)
    reg.record_span(("map_reads",), 2.0, count=8)
    reg.record_span(("map_reads", "align"), 1.5, count=8)
    return reg.snapshot()


_BUSY = WorkerView(
    pid=11,
    seq=3,
    heartbeat_age_seconds=0.2,
    busy_chunk=4,
    busy_seconds=1.5,
    reads_per_second=480.0,
    cells_per_second=2.4e5,
    stalled=False,
)
_WORKERS = [_BUSY, replace(_BUSY, pid=12, busy_chunk=None, busy_seconds=0.0)]


def _body(reads=1000, workers=_WORKERS):
    doc = to_json_dict(_snapshot(reads))
    doc["workers"] = [asdict(w) for w in workers]
    return json.dumps(doc)


class TestParseLiveDocument:
    def test_round_trips_snapshot_and_workers(self):
        snap, workers = parse_live_document(_body())
        assert snap == _snapshot()
        assert workers == _WORKERS

    def test_workers_key_is_optional(self):
        snap, workers = parse_live_document(json.dumps(to_json_dict(_snapshot())))
        assert snap == _snapshot() and workers == []


class TestRenderTop:
    def test_frame_contains_rates_and_worker_table(self):
        frame = render_top(
            _snapshot(2000),
            _snapshot(1000),
            1.0,
            _WORKERS,
            source="http://x/metrics",
            clock_text="12:00:00",
        )
        assert "repro top - http://x/metrics" in frame
        assert "reads/s 1.0k" in frame  # (2000-1000)/1s
        assert "DP cells/s 1.0M" in frame  # forward + backward
        assert "candidates/read 3.00" in frame
        assert "workers 2" in frame and "fleet reads/s 960" in frame
        assert "worker" in frame and "11" in frame and "12" in frame
        assert "busy 1.50s" in frame and "idle" in frame

    def test_first_frame_has_no_rates(self):
        frame = render_top(_snapshot(), None, 0.0, _WORKERS, source="s", clock_text="t")
        assert "reads/s -" in frame

    def test_shrunk_counter_means_no_previous_frame(self):
        # The endpoint restarted between polls: counters went backwards.
        frame = render_top(
            _snapshot(10), _snapshot(1000), 1.0, _WORKERS, source="s", clock_text="t"
        )
        assert "reads/s -" in frame and "DP cells/s -" in frame

    def test_stalled_worker_is_flagged(self):
        workers = [replace(_BUSY, stalled=True)]
        frame = render_top(_snapshot(), None, 0.0, workers, source="s", clock_text="t")
        assert "STALLED" in frame

    def test_no_workers_fallback(self):
        frame = render_top(_snapshot(), None, 0.0, [], source="s", clock_text="t")
        assert "workers 0" in frame
        assert "(no workers publishing yet)" in frame

    def test_chunks_row_counts_ok_chunks_and_recoveries(self):
        frame = render_top(
            _snapshot(recoveries=1), None, 0.0, [], source="s", clock_text="t"
        )
        assert "ok 8   retries 1   timeouts 0   deaths 1   stalls 0" in frame

    def test_quantiles_are_the_histogram_quantiles(self):
        snap = _snapshot()
        hist = Histogram.from_dict(snap.histograms["mp.chunk_map_seconds"])
        doc = to_json_dict(snap)["histograms"]["mp.chunk_map_seconds"]
        assert (doc["p50"], doc["p99"]) == (hist.quantile(0.5), hist.quantile(0.99))
        # The tail is clamped to the observed max, not its bucket's bound.
        assert hist.quantile(0.5) == pytest.approx(0.1051, rel=1e-3)
        assert hist.quantile(0.9) == hist.quantile(0.99) == 3.0
        frame = render_top(snap, None, 0.0, [], source="s", clock_text="t")
        assert "chunk p50/p90/p99 105.1ms / 3.00s / 3.00s" in frame

    def test_span_section_is_the_verbose_report_tree(self):
        snap = _snapshot()
        frame = render_top(snap, None, 0.0, [], source="s", clock_text="t")
        report = format_metrics_report(snap)
        tree = report[report.index("spans:") : report.index("histograms:")]
        assert "    align" in tree and tree in frame


def _doc(**sections):
    return json.dumps({"schema": "repro.metrics/v2", **sections})


#: Bodies a socket can hand ``repro top``; none may surface as a traceback.
_HOSTILE = {
    "not-json": "this is not json",
    "not-utf8": b"\xff\xfe",
    "not-a-mapping": "[]",
    "unknown-schema": json.dumps({"schema": "repro.metrics/v99"}),
    "section-not-a-mapping": _doc(counters=[1, 2]),
    "non-numeric-gauge": _doc(gauges={"g": "high"}),
    "span-node-missing-count": _doc(spans={"a": {"seconds": 1}}),
    "nested-span-node-not-a-mapping": _doc(
        spans={"a": {"seconds": 1.0, "count": 1, "children": {"b": 3}}}
    ),
    "histogram-not-a-mapping": _doc(histograms={"h": 7}),
    "histogram-bad-buckets": _doc(histograms={"h": {"buckets": [1]}}),
    "histogram-buckets-short-of-count": _doc(
        histograms={"h": {"count": 3, "buckets": {}}}
    ),
    "histogram-negative-bucket": _doc(
        histograms={"h": {"count": 0, "buckets": {"1": 2, "2": -2}}}
    ),
    "workers-not-a-list": _doc(workers=5),
    "worker-missing-fields": _doc(workers=[{"pid": 1}]),
    "worker-extra-field": _doc(workers=[{**asdict(_BUSY), "x": 1}]),
    "worker-non-numeric-field": _doc(
        workers=[{**asdict(_BUSY), "busy_seconds": "long"}]
    ),
}


def _view(reads):
    return _snapshot(reads), _WORKERS


class TestRunTop:
    def test_finite_iterations_render_frames(self):
        views = iter([_view(1000), _view(2000), _view(3000)])
        out = io.StringIO()
        rc = run_top(
            "http://fake/metrics",
            interval=0.01,
            iterations=3,
            clear=False,
            out=out,
            fetch_fn=lambda url: next(views),
        )
        assert rc == 0
        frames = out.getvalue()
        assert frames.count("repro top - http://fake/metrics") == 3
        # Only the first frame lacks a rate; later frames compute one from
        # the 1000-read counter advance, whatever the loop's elapsed.
        assert frames.count("reads/s -") == 1

    def test_scrape_failure_raises_in_finite_mode(self):
        def fail(url):
            raise OSError("connection refused")

        with pytest.raises(ObservabilityError):
            run_top(
                "http://down/metrics",
                interval=0.01,
                iterations=1,
                clear=False,
                out=io.StringIO(),
                fetch_fn=fail,
            )

    @pytest.mark.parametrize("body", _HOSTILE.values(), ids=_HOSTILE.keys())
    def test_hostile_body_is_a_typed_error(self, body):
        with pytest.raises(ObservabilityError):
            parse_live_document(body)
        with pytest.raises(ObservabilityError):  # what the CLI turns into exit 2
            run_top(
                "http://hostile/metrics",
                interval=0.01,
                iterations=1,
                clear=False,
                out=io.StringIO(),
                fetch_fn=lambda url: parse_live_document(body),
            )

    def test_endless_loop_survives_a_bad_body(self):
        bodies = iter([_body(1000), "<html>oops</html>", _body(2000)])

        def fetch(url):
            try:
                return parse_live_document(next(bodies))
            except StopIteration:
                raise KeyboardInterrupt from None

        out = io.StringIO()
        rc = run_top(
            "http://flaky/metrics", interval=0.01, clear=False, out=out, fetch_fn=fetch
        )
        assert rc == 0
        frames = out.getvalue()
        assert frames.count("repro top - http://flaky/metrics") == 2
        assert frames.count("repro top - waiting for http://flaky/metrics") == 1
        # The frame after the bad body still rates against the last good one.
        assert frames.count("reads/s -") == 1

    def test_bad_interval_rejected(self):
        with pytest.raises(ObservabilityError):
            run_top("http://x/metrics", interval=0.0, iterations=1)

    def test_clear_writes_ansi_reset(self):
        out = io.StringIO()
        run_top(
            "u",
            interval=0.01,
            iterations=1,
            clear=True,
            out=out,
            fetch_fn=lambda url: _view(1000),
        )
        assert out.getvalue().startswith("\x1b[2J\x1b[H")
