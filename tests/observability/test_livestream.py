"""Live telemetry plane: worker publisher and aggregator.

Workers ship their whole cumulative snapshot every interval; the
aggregator keeps the latest one per worker, merges them into the live
view, and folds a dead worker's last snapshot into its own registry so its
work stays counted.  The aggregator is driven synchronously here
(``step()`` + an injected clock); the thread/pipe path, and the worker's
one-time registry clear that keeps fork-inherited parent state out of the
live view, are covered by the end-to-end pipeline telemetry test.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys
import threading
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
from repro.observability.livestream import (
    STALL_AFTER,
    busy_state,
    mark_busy,
    mark_idle,
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


class TestWorkerSide:
    def test_busy_markers_roundtrip(self):
        mark_idle()
        assert busy_state() is None
        mark_busy(3)
        chunk, secs = busy_state()
        assert chunk == 3 and secs >= 0.0
        mark_idle()
        assert busy_state() is None

    def test_heartbeat_snapshot_skips_the_event_ring(self):
        import repro.observability.trace as trace

        reg = MetricsRegistry()
        was = trace.enabled()
        trace.enable()
        try:
            with use(reg):
                trace.instant("obs.test_tick")
        finally:
            if not was:
                trace.disable()
        assert reg.snapshot().events and reg.snapshot_values().events == ()

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
            seq, wall_ts, busy, snapshot = recv.recv()
            assert seq == 0 and abs(wall_ts - time.time()) < 60
            # The whole cumulative registry travels, not an increment.
            assert MetricsSnapshot.from_dict(snapshot).counter("pipeline.reads") == 25
            reg.clear()  # counters go backwards: the next snapshot says so
            reg.inc("pipeline.reads", 4)
            deadline = time.monotonic() + 5.0
            resynced = False
            while time.monotonic() < deadline and not resynced:
                if recv.poll(0.1):
                    _, _, _, d = recv.recv()
                    resynced = (
                        MetricsSnapshot.from_dict(d).counter("pipeline.reads") == 4
                    )
            assert resynced, "publisher never shipped the cleared registry"
        finally:
            stop.set()
            recv.close()
            send.close()


class _FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def _send_snapshot(send, seq, reads=0, cells=0, busy=None):
    """One heartbeat carrying a worker's cumulative ``reads``/``cells``."""
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
        for constant in ("stall_after", "ewma_alpha"):  # module constants
            with pytest.raises(TypeError):
                TelemetryAggregator(**{constant: 0.5})

    def test_ingest_folds_deltas_and_tracks_rates(self):
        clock = _FakeClock()
        agg = TelemetryAggregator(interval=1.0, clock=clock)
        recv, send = mp.Pipe(duplex=False)
        agg.register(4242, recv)
        _send_snapshot(send, 0, reads=100, cells=2000, busy=(7, 0.4))
        agg.step()
        # Cumulative: the live view holds the latest snapshot, not a sum.
        _send_snapshot(send, 1, reads=150, cells=3000)
        clock.now += 1.0
        agg.step()
        snap = agg.live_snapshot()
        assert snap.counter("pipeline.reads") == 150
        assert snap.counter("phmm.forward_cells") == 3000
        assert snap.counter("obs.telemetry_deltas") == 2
        (view,) = agg.worker_views()
        assert view.pid == 4242 and view.seq == 1
        # First sample seeds the EWMA at 100/s; the second's counter
        # difference folds in 50/s.
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
        _send_snapshot(pipes[0][1], 0, reads=10, busy=(3, 0.5))
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
        agg = TelemetryAggregator(interval=1.0, clock=clock)
        recv, send = mp.Pipe(duplex=False)
        agg.register(7, recv)
        clock.now += STALL_AFTER + 1.0  # no heartbeat for longer than that
        agg.step()
        agg.step()  # still stalled: no re-increment on the held edge
        snap = agg.live_snapshot()
        assert snap.counter("mp.worker_stalls") == 1
        assert snap.gauges["mp.worker_heartbeat_age_seconds_max"] >= STALL_AFTER + 1.0
        (view,) = agg.worker_views()
        assert view.stalled
        # Recovery then a second silence re-arms the edge.
        _send_snapshot(send, 0)
        agg.step()
        assert not agg.worker_views()[0].stalled
        clock.now += STALL_AFTER + 1.0
        agg.step()
        assert agg.live_snapshot().counter("mp.worker_stalls") == 2
        agg.close()
        send.close()

    def test_watchdog_flags_long_busy_chunk_despite_heartbeats(self):
        clock = _FakeClock()
        agg = TelemetryAggregator(interval=1.0, clock=clock)
        recv, send = mp.Pipe(duplex=False)
        agg.register(9, recv)
        # Heartbeats keep arriving, but the same chunk has been running
        # for longer than STALL_AFTER: busy-stall.
        _send_snapshot(send, 0, busy=(3, STALL_AFTER + 1.5))
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

    def test_dead_workers_last_snapshot_stays_counted(self):
        agg = TelemetryAggregator(clock=_FakeClock())
        pipes = [mp.Pipe(duplex=False) for _ in range(2)]
        for pid, (recv, _) in zip((1, 2), pipes):
            agg.register(pid, recv)
        _send_snapshot(pipes[0][1], 0, reads=30)
        _send_snapshot(pipes[1][1], 0, reads=12)
        agg.step()
        pipes[0][1].close()  # worker 1 dies after its heartbeat
        agg.step()
        assert [v.pid for v in agg.worker_views()] == [2]
        assert agg.live_snapshot().counter("pipeline.reads") == 42
        _send_snapshot(pipes[1][1], 1, reads=20)
        agg.step()
        assert agg.live_snapshot().counter("pipeline.reads") == 50
        agg.close()
        pipes[1][1].close()

    def test_live_view_never_loses_or_doubles_a_snapshot(self):
        # The drain thread swaps snapshots and folds a dead worker's last
        # one while another thread reads the live view; a read must never
        # see a snapshot missing (count dips) or counted twice (count > 200).
        agg = TelemetryAggregator(interval=0.01)
        recv, send = mp.Pipe(duplex=False)
        agg.register(3, recv)

        def publish():
            for seq in range(1, 201):
                _send_snapshot(send, seq, reads=seq)
                time.sleep(0.001)  # let the reader see every stage
            send.close()  # the worker dies after its last heartbeat

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=publish)
        try:
            agg.start()
            writer.start()
            seen = 0
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                reads = agg.live_snapshot().counter("pipeline.reads")
                assert seen <= reads <= 200
                seen = reads
                if reads == 200 and not agg.worker_views():
                    break
            writer.join(timeout=5.0)
            assert not writer.is_alive()
            assert agg.worker_views() == []
            assert agg.live_snapshot().counter("pipeline.reads") == 200
        finally:
            sys.setswitchinterval(switch)
            agg.close()

    def test_background_thread_drains_real_pipe(self):
        agg = TelemetryAggregator(interval=0.05)
        recv, send = mp.Pipe(duplex=False)
        agg.register(11, recv)
        agg.start()
        try:
            _send_snapshot(send, 0, reads=10)
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
