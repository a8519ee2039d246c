"""Live telemetry plane: the parent's view of what each pool worker is doing.

Everything the pipeline measures rides home *after* a chunk completes — a
multi-minute pool run is a black box until it finishes.  This module keeps
the in-flight view without touching the result path.  Each pool worker
sends its whole cumulative process-global registry as a tagged ``_BEAT``
message on its task pipe, every interval while it holds a chunk and once
more right before each chunk's result (see :mod:`repro.parallel.pool`).
The pool's event loop hands those to :class:`TelemetryAggregator`, which
has no thread and no pipes of its own: it keeps each worker's latest
snapshot and merges them with its own registry into the live view.  It
tracks per-worker heartbeat ages and reads/s / DP-cells/s EWMAs, and a
stall watchdog flags a busy worker *before* the pool's per-chunk timeout
fires: ``mp.worker_stalls`` counter + ``mp.worker_stall`` trace instant on
the rising edge, ``mp.worker_heartbeat_age_seconds_max`` high-water gauge
continuously.

A beat carries ``snapshot.as_dict()`` — plain picklable data, no classes,
so a version-skewed reader fails loudly in ``MetricsSnapshot.from_dict``
instead of unpickling garbage.  A whole snapshot is ~1-2 KB pickled, so
shipping it every interval costs less than any subtraction scheme would
save.  Snapshots never carry trace events (those ride home with chunk
results).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.errors import ObservabilityError
from repro.observability import trace
from repro.observability.export import to_json_dict
from repro.observability.registry import MetricsRegistry
from repro.observability.snapshot import MetricsSnapshot, merge_snapshots

__all__ = ["STALL_AFTER", "TelemetryAggregator", "WorkerView"]

#: Counters whose per-interval rates feed the per-worker EWMAs.
_READS_COUNTER = "pipeline.reads"
_CELLS_COUNTERS = ("phmm.forward_cells", "phmm.backward_cells")
#: Weight of the newest sample in the per-worker rate EWMAs.
_EWMA_ALPHA = 0.5
#: Watchdog threshold in seconds: a busy worker whose heartbeat age *or*
#: in-chunk time exceeds this is flagged stalled — early warning well
#: ahead of the pool's per-chunk timeout kill.
STALL_AFTER = 5.0


@dataclass(frozen=True)
class WorkerView:
    """One worker's live state as the aggregator sees it."""

    pid: int
    seq: int
    heartbeat_age_seconds: float
    busy_chunk: "int | None"
    busy_seconds: float
    reads_per_second: float
    cells_per_second: float
    stalled: bool


class _WorkerState:
    __slots__ = ("seq", "last_seen", "busy", "reads_rate", "cells_rate", "stalled", "latest")

    def __init__(self, now: float) -> None:
        self.seq = 0  # beats received
        self.last_seen = now  # last beat, registration or dispatch
        self.busy: "tuple[int, float] | None" = None  # (chunk_id, dispatched)
        self.reads_rate = 0.0
        self.cells_rate = 0.0
        self.stalled = False
        self.latest = MetricsSnapshot.empty()  # last cumulative snapshot


class TelemetryAggregator:
    """Each worker's latest snapshot, fed by the pool's event loop.

    The live view is the merge of those snapshots with the aggregator's
    own registry, which holds the parent-side counts (heartbeats, stalls,
    decode errors, mirrored recovery counters), the heartbeat-age gauge
    and the last snapshot of every worker the pool has reaped — a dead
    worker's work stays counted.  All of it is *separate* from the
    parent's authoritative registry: it exists only to be read live (the
    endpoint, ``repro top``), so telemetry can never perturb the result
    path.  The only writes that reach the parent's normal registry chain
    are the watchdog's ``mp.worker_stall`` trace instants, which go
    wherever ``current()`` points (i.e. into the same flight recorder as
    every other event).

    The pool's loop writes (:meth:`register`, :meth:`ingest`,
    :meth:`busy`, :meth:`forget`, :meth:`watchdog`) while the endpoint
    thread reads, so one lock guards the per-worker state.  Tests drive
    the writes directly with an injected clock.
    """

    def __init__(
        self,
        interval: float = 1.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ObservabilityError(f"telemetry interval must be > 0, got {interval}")
        self._interval = float(interval)
        self._clock = clock
        self._registry = MetricsRegistry()
        self._states: "dict[int, _WorkerState]" = {}
        self._lock = threading.Lock()

    @property
    def interval(self) -> float:
        """Publisher heartbeat interval (workers read this at spawn)."""
        return self._interval

    # -- writes (the pool's event loop) --------------------------------------
    def register(self, pid: int) -> None:
        """Adopt a freshly spawned worker."""
        with self._lock:
            self._states[pid] = _WorkerState(self._clock())

    def forget(self, pid: int) -> None:
        """Drop a stopped or killed worker, keeping its last snapshot counted."""
        with self._lock:
            state = self._states.pop(pid, None)
            if state is not None:
                self._registry.absorb(state.latest)

    def busy(self, pid: int, chunk_id: "int | None") -> None:
        """Record a dispatch to ``pid`` (``chunk_id``) or its reply (None)."""
        now = self._clock()
        with self._lock:
            state = self._states.get(pid)
            if state is None:
                return
            state.busy = None if chunk_id is None else (chunk_id, now)
            if chunk_id is not None:
                state.last_seen = now

    def ingest(self, pid: int, data: Any) -> None:
        """Take one beat: ``data`` is a worker's ``snapshot.as_dict()``."""
        try:
            snapshot = MetricsSnapshot.from_dict(data)
        except (ObservabilityError, TypeError, ValueError):
            self._registry.inc("obs.telemetry_decode_errors")
            return
        self._registry.inc("obs.telemetry_deltas")
        now = self._clock()
        with self._lock:
            state = self._states.get(pid)
            if state is None:
                return
            prev, state.latest = state.latest, snapshot
            reads = snapshot.counter(_READS_COUNTER) - prev.counter(_READS_COUNTER)
            cells = sum(
                snapshot.counter(name) - prev.counter(name) for name in _CELLS_COUNTERS
            )
            elapsed = max(now - state.last_seen, 1e-6)
            first = state.seq == 0
            state.reads_rate = _ewma(state.reads_rate, reads / elapsed, first)
            state.cells_rate = _ewma(state.cells_rate, cells / elapsed, first)
            state.seq += 1
            state.last_seen = now

    def watchdog(self) -> None:
        """Flag busy workers silent or on one chunk for over ``STALL_AFTER``."""
        now = self._clock()
        with self._lock:
            for pid, state in self._states.items():
                stalled = False
                if state.busy is not None:
                    age = now - state.last_seen
                    busy_secs = now - state.busy[1]
                    self._registry.gauge_max("mp.worker_heartbeat_age_seconds_max", age)
                    stalled = age > STALL_AFTER or busy_secs > STALL_AFTER
                    if stalled and not state.stalled:
                        self._registry.inc("mp.worker_stalls")
                        trace.instant(
                            "mp.worker_stall",
                            pid=pid,
                            chunk=state.busy[0],
                            heartbeat_age=round(age, 3),
                            busy_seconds=round(busy_secs, 3),
                        )
                state.stalled = stalled

    def count(self, name: str) -> None:
        """Mirror one parent-side event (the pool's recovery counters,
        which no worker can report) into the live registry only."""
        self._registry.inc(name)

    # -- reads (the endpoint thread) -----------------------------------------
    def live_snapshot(self) -> MetricsSnapshot:
        """Frozen view of the live plane: the aggregator's own registry
        merged with every live worker's latest snapshot."""
        with self._lock:
            latest = [state.latest for state in self._states.values()]
            return merge_snapshots(self._registry.snapshot(), *latest)

    def live_document(self) -> "dict[str, Any]":
        """What the endpoint serves: the ``repro.metrics/v2`` document of
        :meth:`live_snapshot` plus ``workers``, one mapping of the
        :class:`WorkerView` fields per worker, sorted by pid."""
        doc = to_json_dict(self.live_snapshot())
        doc["workers"] = [asdict(view) for view in self.worker_views()]
        return doc

    def worker_views(self) -> "list[WorkerView]":
        """Per-worker live state, sorted by pid (ages as of now).  An idle
        worker reads 0 busy seconds and 0 rates."""
        now = self._clock()
        with self._lock:
            return [
                WorkerView(
                    pid=pid,
                    seq=state.seq,
                    heartbeat_age_seconds=max(0.0, now - state.last_seen),
                    busy_chunk=None if state.busy is None else state.busy[0],
                    busy_seconds=0.0 if state.busy is None else now - state.busy[1],
                    reads_per_second=0.0 if state.busy is None else state.reads_rate,
                    cells_per_second=0.0 if state.busy is None else state.cells_rate,
                    stalled=state.stalled,
                )
                for pid, state in sorted(self._states.items())
            ]


def _ewma(prev: float, sample: float, first: bool) -> float:
    if first:
        return sample
    return _EWMA_ALPHA * sample + (1.0 - _EWMA_ALPHA) * prev
