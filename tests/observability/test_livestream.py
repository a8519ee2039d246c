"""Live telemetry plane: delta algebra, worker publisher, aggregator.

The delta contract is the heart of the sideband: for any two successive
cumulative snapshots ``prev`` then ``curr`` of one registry,
``merge(prev, curr.delta_since(prev))`` must reconstruct ``curr`` for
counters, histogram buckets and span counts — so the aggregator can fold
per-interval deltas from many workers into one coherent live registry.
The aggregator itself is driven synchronously here (``step()`` + an
injected clock); the thread/pipe path is covered by the end-to-end
pipeline telemetry test.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import time
from dataclasses import asdict

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    MetricsRegistry,
    TelemetryAggregator,
    to_json_dict,
    use,
)
from repro.observability.dashboard import parse_live_document
from repro.observability.histogram import subtract_histogram_dicts
from repro.observability.livestream import (
    busy_state,
    mark_busy,
    mark_idle,
    publish_loop,
    start_publisher,
)
from repro.observability.snapshot import MetricsSnapshot


def _registry_with_activity(reads: int = 100, cells: int = 5000) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("pipeline.reads", reads)
    reg.inc("phmm.forward_cells", cells)
    reg.observe("mp.chunk_map_seconds", 0.25)
    reg.gauge_max("mp.shm_bytes", 1 << 20)
    return reg


class TestDeltaAlgebra:
    def test_merge_prev_delta_reconstructs_curr(self):
        reg = _registry_with_activity()
        prev = reg.snapshot_values()
        reg.inc("pipeline.reads", 50)
        reg.observe("mp.chunk_map_seconds", 0.5)
        reg.observe("mp.chunk_map_seconds", 1.5)
        with use(reg):
            from repro.observability import span

            with span("align"):
                pass
        curr = reg.snapshot_values()
        delta = curr.delta_since(prev)
        rebuilt = prev.merge(delta)
        assert rebuilt.counter("pipeline.reads") == curr.counter("pipeline.reads")
        assert rebuilt.histogram("mp.chunk_map_seconds")["count"] == (
            curr.histogram("mp.chunk_map_seconds")["count"]
        )
        assert rebuilt.histogram("mp.chunk_map_seconds")["buckets"] == (
            curr.histogram("mp.chunk_map_seconds")["buckets"]
        )
        assert rebuilt.span_count("align") == curr.span_count("align")

    def test_delta_contains_only_the_increment(self):
        reg = _registry_with_activity(reads=100)
        prev = reg.snapshot_values()
        reg.inc("pipeline.reads", 7)
        delta = reg.snapshot_values().delta_since(prev)
        assert delta.counter("pipeline.reads") == 7
        # Unchanged counters vanish from the delta entirely.
        assert "phmm.forward_cells" not in delta.counters

    def test_delta_never_carries_events(self):
        import repro.observability.trace as trace

        reg = MetricsRegistry()
        was = trace.enabled()
        trace.enable()
        try:
            with use(reg):
                trace.instant("obs.test_tick")
            prev = MetricsSnapshot.empty()
            delta = reg.snapshot_values().delta_since(prev)
            assert delta.events == ()
        finally:
            if not was:
                trace.disable()

    def test_counter_shrink_raises(self):
        reg = _registry_with_activity(reads=10)
        bigger = reg.snapshot_values()
        smaller_reg = _registry_with_activity(reads=3)
        with pytest.raises(ObservabilityError):
            smaller_reg.snapshot_values().delta_since(bigger)

    def test_histogram_subtract_rejects_shrunk_buckets(self):
        reg = MetricsRegistry()
        reg.observe("mp.chunk_map_seconds", 1.0)
        curr = reg.snapshot_values().histogram("mp.chunk_map_seconds")
        prev = dict(curr)
        prev["count"] = curr["count"] + 1
        with pytest.raises(ObservabilityError):
            subtract_histogram_dicts(curr, prev)


class TestWorkerSide:
    def test_busy_markers_roundtrip(self):
        mark_idle()
        assert busy_state() is None
        mark_busy(3)
        chunk, secs = busy_state()
        assert chunk == 3 and secs >= 0.0
        mark_idle()
        assert busy_state() is None

    def test_publisher_ships_deltas_over_a_real_pipe(self):
        recv, send = mp.Pipe(duplex=False)
        reg = _registry_with_activity(reads=40)
        stop = start_publisher(send, 0.01, registry=reg)
        try:
            assert recv.poll(5.0)
            seq, wall_ts, busy, delta_dict = recv.recv()
            assert seq == 0
            assert abs(wall_ts - time.time()) < 60
            # Activity from before the publisher started is baseline, not
            # delta — a fork-inherited parent registry must not travel.
            delta = MetricsSnapshot.from_dict(delta_dict)
            assert delta.counter("pipeline.reads") == 0
            assert "mp.shm_bytes" not in delta.gauges
            reg.inc("pipeline.reads", 2)
            deadline = time.monotonic() + 5.0
            got = 0.0
            while time.monotonic() < deadline and got != 2:
                if recv.poll(0.1):
                    _, _, _, d = recv.recv()
                    got += MetricsSnapshot.from_dict(d).counter("pipeline.reads")
            assert got == 2  # successive deltas carry only the increment
        finally:
            stop.set()
            recv.close()
            send.close()

    def test_publisher_exits_when_parent_closes_pipe(self):
        recv, send = mp.Pipe(duplex=False)
        reg = MetricsRegistry()
        stop = start_publisher(send, 0.01, registry=reg)
        assert recv.poll(5.0)
        recv.close()
        # The next send hits a broken pipe and the loop returns; give it a
        # moment and confirm by setting stop (idempotent) — no exception
        # escapes the daemon thread either way.
        time.sleep(0.1)
        stop.set()

    def test_publish_loop_resyncs_after_registry_clear(self):
        recv, send = mp.Pipe(duplex=False)
        reg = _registry_with_activity(reads=25)
        stop = start_publisher(send, 0.01, registry=reg)
        try:
            assert recv.poll(5.0)
            recv.recv()  # cumulative 25
            reg.clear()  # counters go backwards: delta would be negative
            reg.inc("pipeline.reads", 4)
            deadline = time.monotonic() + 5.0
            resynced = False
            while time.monotonic() < deadline and not resynced:
                if recv.poll(0.1):
                    _, _, _, d = recv.recv()
                    resynced = (
                        MetricsSnapshot.from_dict(d).counter("pipeline.reads") == 4
                    )
            assert resynced, "publisher never shipped the full-state resync"
        finally:
            stop.set()
            recv.close()
            send.close()


class _FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def _send_delta(send, seq, reads=0, cells=0, busy=None):
    reg = MetricsRegistry()
    if reads:
        reg.inc("pipeline.reads", reads)
    if cells:
        reg.inc("phmm.forward_cells", cells)
    send.send((seq, time.time(), busy, reg.snapshot_values().as_dict()))


class TestAggregator:
    def test_validation(self):
        with pytest.raises(ObservabilityError):
            TelemetryAggregator(interval=0.0)
        with pytest.raises(ObservabilityError):
            TelemetryAggregator(stall_after=-1.0)
        with pytest.raises(TypeError):  # the EWMA weight is a constant
            TelemetryAggregator(ewma_alpha=0.5)

    def test_ingest_folds_deltas_and_tracks_rates(self):
        clock = _FakeClock()
        agg = TelemetryAggregator(interval=1.0, stall_after=5.0, clock=clock)
        recv, send = mp.Pipe(duplex=False)
        agg.register(4242, recv)
        _send_delta(send, 0, reads=100, cells=2000, busy=(7, 0.4))
        agg.step()
        _send_delta(send, 1, reads=50, cells=1000)
        clock.now += 1.0
        agg.step()
        snap = agg.live_snapshot()
        assert snap.counter("pipeline.reads") == 150
        assert snap.counter("phmm.forward_cells") == 3000
        assert snap.counter("obs.telemetry_deltas") == 2
        (view,) = agg.worker_views()
        assert view.pid == 4242 and view.seq == 1
        # First sample seeds the EWMA at 100/s; second folds in 50/s.
        assert view.reads_per_second == pytest.approx(75.0)
        assert not view.stalled
        agg.close()
        send.close()

    def test_malformed_message_counts_decode_error(self):
        agg = TelemetryAggregator(clock=_FakeClock())
        recv, send = mp.Pipe(duplex=False)
        agg.register(1, recv)
        send.send({"not": "a heartbeat"})
        agg.step()
        assert agg.live_snapshot().counter("obs.telemetry_decode_errors") == 1
        agg.close()
        send.close()

    def test_nested_malformed_span_counts_decode_error(self):
        # A defect below the top level must count as a decode error too,
        # not escape from_dict as a KeyError and kill the drain thread.
        agg = TelemetryAggregator(clock=_FakeClock())
        recv, send = mp.Pipe(duplex=False)
        agg.register(1, recv)
        bad = {"a": {"seconds": 1.0, "count": 1, "children": {"b": {"count": 1}}}}
        send.send((0, time.time(), None, {"spans": bad}))
        agg.step()
        assert agg.live_snapshot().counter("obs.telemetry_decode_errors") == 1
        agg.close()
        send.close()

    def test_live_document_is_the_metrics_document_plus_workers(self):
        agg = TelemetryAggregator(clock=_FakeClock())
        pipes = [mp.Pipe(duplex=False) for _ in range(2)]
        for pid, (recv, _) in zip((78, 77), pipes):
            agg.register(pid, recv)
        _send_delta(pipes[0][1], 0, reads=10, busy=(3, 0.5))
        agg.step()
        agg.count("mp.worker_deaths")
        doc = agg.live_document()
        assert doc["workers"] == [asdict(v) for v in agg.worker_views()]
        assert [w["pid"] for w in doc["workers"]] == [77, 78]
        assert doc["workers"][1]["busy_chunk"] == 3
        assert doc.pop("workers") and doc == to_json_dict(agg.live_snapshot())
        assert doc["counters"]["mp.worker_deaths"] == 1
        # What the endpoint sends decodes back to the same snapshot.
        snap, workers = parse_live_document(json.dumps(agg.live_document()))
        assert snap == MetricsSnapshot.from_dict(agg.live_snapshot().as_dict())
        assert workers == agg.worker_views()
        agg.close()
        for _, send in pipes:
            send.close()

    def test_watchdog_flags_silent_worker_once(self):
        clock = _FakeClock()
        agg = TelemetryAggregator(interval=1.0, stall_after=5.0, clock=clock)
        recv, send = mp.Pipe(duplex=False)
        agg.register(7, recv)
        clock.now += 6.0  # no heartbeat for longer than stall_after
        agg.step()
        agg.step()  # still stalled: no re-increment on the held edge
        snap = agg.live_snapshot()
        assert snap.counter("mp.worker_stalls") == 1
        assert snap.gauges["mp.worker_heartbeat_age_seconds_max"] >= 6.0
        (view,) = agg.worker_views()
        assert view.stalled
        # Recovery then a second silence re-arms the edge.
        _send_delta(send, 0)
        agg.step()
        assert not agg.worker_views()[0].stalled
        clock.now += 6.0
        agg.step()
        assert agg.live_snapshot().counter("mp.worker_stalls") == 2
        agg.close()
        send.close()

    def test_watchdog_flags_long_busy_chunk_despite_heartbeats(self):
        clock = _FakeClock()
        agg = TelemetryAggregator(interval=1.0, stall_after=5.0, clock=clock)
        recv, send = mp.Pipe(duplex=False)
        agg.register(9, recv)
        # Heartbeats keep arriving, but the same chunk has been running
        # for longer than stall_after: busy-stall.
        _send_delta(send, 0, busy=(3, 6.5))
        agg.step()
        snap = agg.live_snapshot()
        assert snap.counter("mp.worker_stalls") == 1
        (view,) = agg.worker_views()
        assert view.stalled and view.busy_chunk == 3
        agg.close()
        send.close()

    def test_eof_unregisters_worker(self):
        agg = TelemetryAggregator(clock=_FakeClock())
        recv, send = mp.Pipe(duplex=False)
        agg.register(5, recv)
        send.close()
        agg.step()
        assert agg.worker_views() == []
        agg.close()

    def test_background_thread_drains_real_pipe(self):
        agg = TelemetryAggregator(interval=0.05, stall_after=60.0)
        recv, send = mp.Pipe(duplex=False)
        agg.register(11, recv)
        agg.start()
        try:
            _send_delta(send, 0, reads=10)
            deadline = time.monotonic() + 5.0
            while (
                time.monotonic() < deadline
                and agg.live_snapshot().counter("pipeline.reads") != 10
            ):
                time.sleep(0.02)
            assert agg.live_snapshot().counter("pipeline.reads") == 10
        finally:
            agg.close()
            send.close()
