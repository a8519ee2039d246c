"""Live telemetry plane: the passive aggregator.

The pool's event loop feeds the aggregator — ``register`` at spawn,
``busy`` at dispatch and reply, ``ingest`` per heartbeat, ``forget`` when
it reaps a worker, ``watchdog`` once per tick — so these tests make the
same calls directly, with an injected clock.  The aggregator keeps the
latest snapshot per worker, merges them into the live view, and folds a
reaped worker's last snapshot into its own registry so its work stays
counted.  Heartbeats over a real pool, and the worker's one-time registry
clear that keeps fork-inherited parent state out of the live view, are
covered by the end-to-end pipeline telemetry test.
"""

from __future__ import annotations

import json
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
from repro.observability.livestream import STALL_AFTER
from repro.observability.snapshot import MetricsSnapshot


class TestWorkerSide:
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


class _FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def _beat(reads=0, cells=0):
    """One heartbeat payload carrying a worker's cumulative ``reads``/``cells``."""
    reg = MetricsRegistry()
    if reads:
        reg.inc("pipeline.reads", reads)
    if cells:
        reg.inc("phmm.forward_cells", cells)
    return reg.snapshot_values().as_dict()


def _aggregator(*pids, busy=None, interval=1.0):
    clock = _FakeClock()
    agg = TelemetryAggregator(interval=interval, clock=clock)
    for pid in pids:
        agg.register(pid)
        if busy is not None:
            agg.busy(pid, busy)
    return agg, clock


class TestAggregator:
    def test_validation(self):
        with pytest.raises(ObservabilityError):
            TelemetryAggregator(interval=0.0)
        for constant in ("stall_after", "ewma_alpha"):  # module constants
            with pytest.raises(TypeError):
                TelemetryAggregator(**{constant: 0.5})

    def test_ingest_folds_deltas_and_tracks_rates(self):
        agg, clock = _aggregator(4242, busy=7)
        clock.now += 1.0
        agg.ingest(4242, _beat(reads=100, cells=2000))
        # Cumulative: the live view holds the latest snapshot, not a sum.
        clock.now += 1.0
        agg.ingest(4242, _beat(reads=150, cells=3000))
        snap = agg.live_snapshot()
        assert snap.counter("pipeline.reads") == 150
        assert snap.counter("phmm.forward_cells") == 3000
        assert snap.counter("obs.telemetry_deltas") == 2
        (view,) = agg.worker_views()
        assert view.pid == 4242 and view.seq == 2
        assert view.busy_chunk == 7 and view.busy_seconds == pytest.approx(2.0)
        # First sample seeds the EWMA at 100/s; the second's counter
        # difference folds in 50/s.
        assert view.reads_per_second == pytest.approx(75.0)
        assert not view.stalled

    def test_idle_worker_rates_read_zero(self):
        agg, clock = _aggregator(5, busy=0)
        clock.now += 1.0
        agg.ingest(5, _beat(reads=100, cells=2000))
        agg.busy(5, None)  # the chunk's reply arrived
        (view,) = agg.worker_views()
        assert view.busy_chunk is None and view.busy_seconds == 0.0
        assert view.reads_per_second == 0.0 and view.cells_per_second == 0.0
        assert view.seq == 1
        assert agg.live_snapshot().counter("pipeline.reads") == 100

    def test_malformed_message_counts_decode_error(self):
        agg, _ = _aggregator(1)
        agg.ingest(1, ("not", "a snapshot"))
        assert agg.live_snapshot().counter("obs.telemetry_decode_errors") == 1
        assert agg.worker_views()[0].seq == 0

    def test_nested_malformed_span_counts_decode_error(self):
        # A defect below the top level must count as a decode error too,
        # not escape from_dict as a KeyError into the pool's loop.
        agg, _ = _aggregator(1)
        bad = {"a": {"seconds": 1.0, "count": 1, "children": {"b": {"count": 1}}}}
        agg.ingest(1, {"spans": bad})
        assert agg.live_snapshot().counter("obs.telemetry_decode_errors") == 1

    def test_live_document_is_the_metrics_document_plus_workers(self):
        agg, _ = _aggregator(78, 77)
        agg.busy(78, 3)
        agg.ingest(78, _beat(reads=10))
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

    def test_watchdog_flags_silent_worker_once(self):
        agg, clock = _aggregator(7, busy=0)
        clock.now += STALL_AFTER + 1.0  # no heartbeat for longer than that
        agg.watchdog()
        agg.watchdog()  # still stalled: no re-increment on the held edge
        snap = agg.live_snapshot()
        assert snap.counter("mp.worker_stalls") == 1
        assert snap.gauges["mp.worker_heartbeat_age_seconds_max"] >= STALL_AFTER + 1.0
        (view,) = agg.worker_views()
        assert view.stalled
        # The reply clears the flag; a second silent chunk re-arms the edge.
        agg.busy(7, None)
        agg.watchdog()
        assert not agg.worker_views()[0].stalled
        agg.busy(7, 1)
        clock.now += STALL_AFTER + 1.0
        agg.watchdog()
        assert agg.live_snapshot().counter("mp.worker_stalls") == 2

    def test_idle_silent_worker_is_not_flagged(self):
        agg, clock = _aggregator(8)
        clock.now += STALL_AFTER * 10  # parked between runs: no beats
        agg.watchdog()
        (view,) = agg.worker_views()
        assert not view.stalled
        assert view.heartbeat_age_seconds == pytest.approx(STALL_AFTER * 10)
        assert agg.live_snapshot().counter("mp.worker_stalls") == 0
        # Its next dispatch restarts the heartbeat age.
        agg.busy(8, 0)
        agg.watchdog()
        assert agg.worker_views()[0].heartbeat_age_seconds == 0.0
        assert agg.live_snapshot().counter("mp.worker_stalls") == 0

    def test_watchdog_flags_long_busy_chunk_despite_heartbeats(self):
        agg, clock = _aggregator(9, busy=3)
        # Heartbeats keep arriving, but the same chunk has been running
        # for longer than STALL_AFTER: busy-stall.
        for _ in range(int(STALL_AFTER) + 2):
            clock.now += 1.0
            agg.ingest(9, _beat())
            agg.watchdog()
        assert agg.live_snapshot().counter("mp.worker_stalls") == 1
        (view,) = agg.worker_views()
        assert view.stalled and view.busy_chunk == 3
        assert view.heartbeat_age_seconds == 0.0

    def test_eof_unregisters_worker(self):
        # The pool reaps a worker whose pipe hit EOF with forget().
        agg, _ = _aggregator(5)
        agg.forget(5)
        agg.forget(5)  # a second reap of the same pid is a no-op
        assert agg.worker_views() == []
        agg.ingest(5, _beat(reads=3))  # a stray beat for it is dropped
        assert agg.live_snapshot().counter("pipeline.reads") == 0

    def test_dead_workers_last_snapshot_stays_counted(self):
        agg, _ = _aggregator(1, 2, busy=0)
        agg.ingest(1, _beat(reads=30))
        agg.ingest(2, _beat(reads=12))
        agg.forget(1)  # worker 1 dies after its heartbeat
        assert [v.pid for v in agg.worker_views()] == [2]
        assert agg.live_snapshot().counter("pipeline.reads") == 42
        agg.ingest(2, _beat(reads=20))
        assert agg.live_snapshot().counter("pipeline.reads") == 50

    def test_live_view_never_loses_or_doubles_a_snapshot(self):
        # The pool's loop swaps snapshots and folds a dead worker's last
        # one while the endpoint thread reads the live view; a read must
        # never see a snapshot missing (count dips) or counted twice
        # (count > 200).
        agg = TelemetryAggregator()
        agg.register(3)
        payloads = [_beat(reads=seq) for seq in range(1, 201)]

        def loop():
            for payload in payloads:
                agg.ingest(3, payload)
                time.sleep(0.001)  # let the reader see every stage
            agg.forget(3)  # the worker dies after its last heartbeat

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=loop)
        try:
            writer.start()
            seen = 0
            while writer.is_alive():
                reads = agg.live_snapshot().counter("pipeline.reads")
                assert seen <= reads <= 200
                seen = reads
            writer.join()
            assert agg.worker_views() == []
            assert agg.live_snapshot().counter("pipeline.reads") == 200
        finally:
            sys.setswitchinterval(switch)
