"""Flight-recorder tracing: enablement, lanes, ring bounds, overhead.

The overhead contract is part of the design (DESIGN.md §11): with tracing
disabled every hook is a flag check and a return, cheap enough to leave
permanently compiled into the hot paths.
"""

import os
import threading
import time

import pytest

import repro.observability.trace as trace
from repro.observability import MetricsRegistry, scope, span, use
from repro.observability.registry import EVENT_CAPACITY


@pytest.fixture(autouse=True)
def restore_trace_state():
    """Every test leaves the module-global trace state as it found it."""
    was_enabled = trace.enabled()
    yield
    (trace.enable if was_enabled else trace.disable)()
    # Only pool workers relabel their process; this one stays "main".
    trace.set_process_label("main")


def ticks(registry: MetricsRegistry, start: int, stop: int) -> None:
    """Record ``obs.test_tick`` instants ``i = start .. stop - 1``."""
    with use(registry):
        for i in range(start, stop):
            trace.instant("obs.test_tick", i=i)


class TestEnablement:
    def test_disabled_by_default_records_nothing(self):
        assert not trace.enabled()
        with scope() as reg:
            trace.instant("mp.chunk_retry", chunk=1)
            trace.counter_sample("mp.chunk_retries", 1)
            with span("map_reads"):
                pass
            snap = reg.snapshot()
        assert snap.events == ()
        assert snap.span_count("map_reads") == 1  # spans still aggregate

    def test_enable_disable_roundtrip(self):
        trace.enable()
        assert trace.enabled()
        trace.disable()
        assert not trace.enabled()

    def test_disabled_overhead_is_negligible(self):
        """100k disabled instants well under 0.15s — the <2% pipeline
        budget with orders of magnitude to spare."""
        assert not trace.enabled()
        t0 = time.perf_counter()
        for _ in range(100_000):
            trace.instant("mp.chunk_retry", chunk=1, attempt=0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.15, f"disabled-path overhead {elapsed:.3f}s"


class TestEventsAndLanes:
    def test_instant_carries_full_lane_identity(self):
        trace.enable()
        trace.set_process_label("main")
        with scope() as reg:
            trace.instant("mp.worker_death", chunk=2, attempt=1)
            snap = reg.snapshot()
        (ev,) = snap.instants("mp.worker_death")
        ts_us, ph, name, pid, plabel, tid, tlabel, args = ev
        assert ph == "i" and name == "mp.worker_death"
        assert pid == os.getpid() and plabel == "main"
        assert tid == threading.get_ident()
        assert tlabel == threading.current_thread().name
        assert args == {"chunk": 2, "attempt": 1}
        assert abs(ts_us - time.time_ns() // 1000) < 60_000_000

    def test_span_emits_begin_end_pair(self):
        trace.enable()
        with scope() as reg:
            with span("align"):
                pass
            snap = reg.snapshot()
        phases = [(ev[1], ev[2]) for ev in snap.events]
        assert phases == [("B", "align"), ("E", "align")]
        assert snap.events[0][0] <= snap.events[1][0]

    def test_rank_threads_get_lane_from_thread_name(self):
        trace.enable()
        reg = MetricsRegistry()

        def body():
            with use(reg):
                trace.instant("cluster.rank_step")

        t = threading.Thread(target=body, name="rank-3")
        t.start()
        t.join()
        (ev,) = reg.snapshot().instants("cluster.rank_step")
        assert ev[6] == "rank-3"

    def test_counter_sample_is_a_c_phase_event(self):
        trace.enable()
        with scope() as reg:
            trace.counter_sample("mp.chunk_retries", 3)
            snap = reg.snapshot()
        (ev,) = snap.events
        assert ev[1] == "C" and ev[7] == {"value": 3}


class TestRingBuffer:
    def test_default_capacity(self):
        assert EVENT_CAPACITY == 65536

    def test_newest_events_win_and_drops_are_counted(self):
        trace.enable()
        reg = MetricsRegistry()
        ticks(reg, 0, EVENT_CAPACITY + 7)
        snap = reg.snapshot()
        assert len(snap.events) == EVENT_CAPACITY
        assert [ev[7]["i"] for ev in snap.events[-5:]] == [
            EVENT_CAPACITY + 2 + i for i in range(5)
        ]
        assert snap.counter("obs.trace_dropped") == 7

    def test_absorb_extends_ring_and_accounts_drops(self):
        trace.enable()
        worker = MetricsRegistry()
        ticks(worker, 0, 3)
        parent = MetricsRegistry()
        ticks(parent, 3, EVENT_CAPACITY + 2)
        parent.absorb(worker.snapshot())
        snap = parent.snapshot()
        assert len(snap.events) == EVENT_CAPACITY
        assert snap.counter("obs.trace_dropped") == 2

    def test_default_capacity_overflow_bounds_memory_and_counts_drops(self):
        """Flooding past the full 65536-slot default ring keeps exactly the
        newest ``capacity`` events, surfaces every drop in
        ``obs.trace_dropped``, and still exports a valid Chrome trace."""
        import json

        from repro.observability import to_chrome_trace

        trace.enable()
        overflow = 2048
        total = EVENT_CAPACITY + overflow
        reg = MetricsRegistry()
        ticks(reg, 0, total)
        snap = reg.snapshot()
        assert len(snap.events) == EVENT_CAPACITY
        assert snap.counter("obs.trace_dropped") == overflow
        # Oldest events fell off the front; the newest survived intact.
        kept = [ev[7]["i"] for ev in snap.events]
        assert kept[0] == overflow
        assert kept[-1] == total - 1
        # The saturated ring still renders to well-formed Chrome trace JSON.
        doc = json.loads(json.dumps(to_chrome_trace(snap)))
        exported = [
            ev for ev in doc["traceEvents"] if ev.get("name") == "obs.test_tick"
        ]
        assert len(exported) == EVENT_CAPACITY

    def test_clear_resets_events_and_drop_count(self):
        trace.enable()
        reg = MetricsRegistry()
        ticks(reg, 0, EVENT_CAPACITY + 3)
        reg.clear()
        snap = reg.snapshot()
        assert snap.events == ()
        assert snap.counter("obs.trace_dropped") == 0


class TestSnapshotTransport:
    def test_events_survive_pickle_and_merge_by_concatenation(self):
        import pickle

        trace.enable()
        with scope() as reg:
            trace.instant("mp.chunk_begin", chunk=0)
            snap = reg.snapshot()
        other = pickle.loads(pickle.dumps(snap))
        merged = snap.merge(other)
        assert len(merged.events) == 2
        assert merged.events[0] == merged.events[1]

    def test_events_excluded_from_json_dict(self):
        trace.enable()
        with scope() as reg:
            trace.instant("mp.chunk_begin", chunk=0)
            snap = reg.snapshot()
        assert "events" not in snap.as_dict()
