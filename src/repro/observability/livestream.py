"""Live telemetry plane: worker snapshot publishers + the parent aggregator.

Everything the pipeline measures today rides home *after* a chunk
completes — a multi-minute pool run is a black box until it finishes.
This module adds the in-flight view without touching the result path:

* **Worker side** — :func:`start_publisher` runs a daemon thread that
  ships the worker's whole cumulative process-global registry (chunk
  instrumentation tees there via ``scope()``) over a dedicated telemetry
  pipe every ``interval`` seconds.  The worker clears that registry once,
  right before the publisher starts, so state a forked worker inherited
  from its parent never travels.  Heartbeats are sent even when idle, so
  liveness and progress travel on the same channel.
  :func:`mark_busy` / :func:`mark_idle` bracket chunk execution so each
  heartbeat can say *what* the worker is doing and for how long.
* **Parent side** — :class:`TelemetryAggregator` drains those pipes on
  its own thread and keeps each worker's latest snapshot; the live view
  merges them with the aggregator's own registry (never the parent's
  authoritative one — the result path stays byte-identical with telemetry
  on or off).  It tracks per-worker heartbeat ages and reads/s /
  DP-cells/s EWMAs, and runs a stall watchdog that flags a worker
  *before* the pool's per-chunk timeout fires:
  ``mp.worker_stalls`` counter + ``mp.worker_stall`` trace instant on
  the rising edge, ``mp.worker_heartbeat_age_seconds_max`` high-water
  gauge continuously.

The wire format is ``(seq, wall_ts, busy, snapshot_as_dict)`` — plain
picklable data, no classes, so a version-skewed reader fails loudly in
``MetricsSnapshot.from_dict`` instead of unpickling garbage.  A whole
snapshot is ~1-2 KB pickled, so shipping it every interval costs less
than any subtraction scheme would save.  Snapshots never carry trace
events (those ride home with chunk results).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ObservabilityError
from repro.observability import trace
from repro.observability.export import to_json_dict
from repro.observability.registry import MetricsRegistry, global_registry
from repro.observability.snapshot import MetricsSnapshot, merge_snapshots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = [
    "STALL_AFTER",
    "TelemetryAggregator",
    "WorkerView",
    "busy_state",
    "mark_busy",
    "mark_idle",
    "publish_loop",
    "start_publisher",
]

#: Counters whose per-interval rates feed the per-worker EWMAs.
_READS_COUNTER = "pipeline.reads"
_CELLS_COUNTERS = ("phmm.forward_cells", "phmm.backward_cells")
#: Weight of the newest sample in the per-worker rate EWMAs.
_EWMA_ALPHA = 0.5
#: Watchdog threshold in seconds: a worker whose heartbeat age *or*
#: in-chunk busy time exceeds this is flagged stalled — early warning well
#: ahead of the pool's per-chunk timeout kill.
STALL_AFTER = 5.0

# -- worker side -------------------------------------------------------------

#: The chunk this process is currently executing: ``(chunk_id, started)``
#: (``time.monotonic``), or None when idle.  Written by the worker loop,
#: read by the publisher thread; a single tuple-or-None store is atomic
#: under the GIL, so no lock is needed for this advisory state.
_busy: "tuple[int, float] | None" = None


def mark_busy(chunk_id: int) -> None:
    """Record that this worker process started executing ``chunk_id``."""
    global _busy
    _busy = (int(chunk_id), time.monotonic())


def mark_idle() -> None:
    """Record that this worker process finished its chunk."""
    global _busy
    _busy = None


def busy_state() -> "tuple[int, float] | None":
    """``(chunk_id, busy_seconds)`` for the in-flight chunk, or None."""
    state = _busy
    if state is None:
        return None
    return state[0], time.monotonic() - state[1]


def publish_loop(
    conn: "Connection",
    interval: float,
    registry: "MetricsRegistry | None" = None,
    stop: "threading.Event | None" = None,
) -> None:
    """Ship the whole cumulative snapshot + a heartbeat over ``conn`` every
    ``interval`` seconds until it breaks.

    Runs in a daemon thread inside each pool worker (started after init,
    just before the worker's READY handshake).  Exits quietly when the
    parent closes its end or the stop event is set.
    """
    reg = registry if registry is not None else global_registry()
    halt = stop if stop is not None else threading.Event()
    seq = 0
    while not halt.wait(interval):
        snapshot = reg.snapshot_values().as_dict()
        try:
            conn.send((seq, time.time(), busy_state(), snapshot))
        except (OSError, ValueError, BrokenPipeError):
            return
        seq += 1


def start_publisher(
    conn: "Connection",
    interval: float,
    registry: "MetricsRegistry | None" = None,
) -> threading.Event:
    """Start the publisher daemon thread; returns its stop event."""
    stop = threading.Event()
    thread = threading.Thread(
        target=publish_loop,
        args=(conn, interval, registry, stop),
        name="repro-telemetry-publisher",
        daemon=True,
    )
    thread.start()
    return stop


# -- parent side -------------------------------------------------------------


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
    __slots__ = (
        "pid",
        "seq",
        "last_seen",
        "busy",
        "reads_rate",
        "cells_rate",
        "stalled",
        "latest",
    )

    def __init__(self, pid: int, now: float) -> None:
        self.pid = pid
        self.seq = -1  # no heartbeat yet
        self.last_seen = now  # registration counts as the first sign of life
        self.busy: "tuple[int, float] | None" = None
        self.reads_rate = 0.0
        self.cells_rate = 0.0
        self.stalled = False
        self.latest = MetricsSnapshot.empty()  # last cumulative snapshot


class TelemetryAggregator:
    """Parent-side thread holding each worker's latest snapshot.

    The live view is the merge of those snapshots with the aggregator's
    own registry, which holds the parent-side counts (heartbeats, stalls,
    decode errors, mirrored recovery counters), the heartbeat-age gauge
    and the last snapshot of every worker whose pipe closed — a dead
    worker's work stays counted.  All of it is *separate* from the
    parent's authoritative registry: it exists only to be read live (the
    endpoint, ``repro top``), so telemetry can never perturb the result
    path.  The only writes that reach the parent's normal registry chain
    are the watchdog's ``mp.worker_stall`` trace instants, which go
    wherever ``current()`` points (i.e. into the same flight recorder as
    every other event).

    ``step()`` is the whole engine — one pipe drain + one watchdog pass —
    so tests can drive the aggregator synchronously with an injected
    clock instead of racing the background thread.
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
        self._tick = min(0.2, self._interval)
        self._registry = MetricsRegistry()
        self._states: "dict[Connection, _WorkerState]" = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    @property
    def interval(self) -> float:
        """Publisher heartbeat interval (workers read this at spawn)."""
        return self._interval

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start the background drain thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-telemetry-aggregator", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Stop the thread and drop every registered worker pipe."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            conns = list(self._states)
            self._states.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def register(self, pid: "int | None", conn: "Connection") -> None:
        """Adopt a freshly spawned worker's telemetry pipe."""
        with self._lock:
            self._states[conn] = _WorkerState(int(pid or 0), self._clock())

    def _run(self) -> None:
        while not self._stop.is_set():
            self.step(self._tick)

    # -- the engine ----------------------------------------------------------
    def step(self, timeout: float = 0.0) -> None:
        """One drain + watchdog pass (what the thread loops over)."""
        from multiprocessing.connection import wait as conn_wait

        with self._lock:
            conns = list(self._states)
        if conns:
            try:
                ready = conn_wait(conns, timeout)
            except OSError:  # a conn died between listing and waiting
                ready = []
            for conn in ready:
                self._drain(conn)
        elif timeout:
            self._stop.wait(timeout)
        self._watchdog()

    def _drain(self, conn: "Connection") -> None:
        try:
            while conn.poll(0):
                self._ingest(conn, conn.recv())
        except (EOFError, OSError):
            self._forget(conn)

    def _forget(self, conn: "Connection") -> None:
        with self._lock:
            state = self._states.pop(conn, None)
            if state is not None:
                self._registry.absorb(state.latest)
        try:
            conn.close()
        except OSError:  # pragma: no cover - parent end already closed
            pass

    def _ingest(self, conn: "Connection", msg: Any) -> None:
        try:
            seq, _wall_ts, busy, snapshot_dict = msg
            snapshot = MetricsSnapshot.from_dict(snapshot_dict)
        except (ObservabilityError, TypeError, ValueError):
            self._registry.inc("obs.telemetry_decode_errors")
            return
        self._registry.inc("obs.telemetry_deltas")
        with self._lock:
            state = self._states.get(conn)
            if state is None:
                return
            prev, state.latest = state.latest, snapshot
            reads = snapshot.counter(_READS_COUNTER) - prev.counter(_READS_COUNTER)
            cells = sum(
                snapshot.counter(name) - prev.counter(name) for name in _CELLS_COUNTERS
            )
            now = self._clock()
            first = state.seq < 0
            elapsed = max(self._interval if first else now - state.last_seen, 1e-6)
            state.reads_rate = self._ewma(state.reads_rate, reads / elapsed, first)
            state.cells_rate = self._ewma(state.cells_rate, cells / elapsed, first)
            state.seq = int(seq)
            state.last_seen = now
            state.busy = None if busy is None else (int(busy[0]), float(busy[1]))

    def _ewma(self, prev: float, sample: float, first: bool) -> float:
        if first:
            return sample
        return _EWMA_ALPHA * sample + (1.0 - _EWMA_ALPHA) * prev

    def _watchdog(self) -> None:
        now = self._clock()
        with self._lock:
            states = list(self._states.values())
            for state in states:
                age = max(0.0, now - state.last_seen)
                busy_secs = 0.0
                if state.busy is not None:
                    busy_secs = state.busy[1] + age
                self._registry.gauge_max(
                    "mp.worker_heartbeat_age_seconds_max", age
                )
                stalled = age > STALL_AFTER or busy_secs > STALL_AFTER
                if stalled and not state.stalled:
                    self._registry.inc("mp.worker_stalls")
                    trace.instant(
                        "mp.worker_stall",
                        pid=state.pid,
                        chunk=None if state.busy is None else state.busy[0],
                        heartbeat_age=round(age, 3),
                        busy_seconds=round(busy_secs, 3),
                    )
                state.stalled = stalled

    def count(self, name: str) -> None:
        """Mirror one parent-side event (the pool's recovery counters,
        which no worker can report) into the live registry only."""
        self._registry.inc(name)

    # -- reads ---------------------------------------------------------------
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
        """Per-worker live state, sorted by pid (heartbeat ages as of now)."""
        now = self._clock()
        with self._lock:
            states = list(self._states.values())
        views = []
        for state in states:
            age = max(0.0, now - state.last_seen)
            busy_chunk = None if state.busy is None else state.busy[0]
            busy_secs = 0.0 if state.busy is None else state.busy[1] + age
            views.append(
                WorkerView(
                    pid=state.pid,
                    seq=state.seq,
                    heartbeat_age_seconds=age,
                    busy_chunk=busy_chunk,
                    busy_seconds=busy_secs,
                    reads_per_second=state.reads_rate,
                    cells_per_second=state.cells_rate,
                    stalled=state.stalled,
                )
            )
        views.sort(key=lambda v: v.pid)
        return views
