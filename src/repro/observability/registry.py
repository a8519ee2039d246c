"""Thread-safe in-process metrics registry and the active-registry context.

One :class:`MetricsRegistry` holds counters, gauges and the span tree for a
run.  The module keeps a process-wide default registry plus a thread-local
override stack:

* :func:`current` — the registry instrumentation writes to right now;
* :func:`use` — install a specific registry for the calling thread;
* :func:`scope` — install a *child* registry that tees every write to its
  parent, so a caller can measure one region in isolation while the global
  tree still accrues (this is what removes the old double-measurement
  drift: calibration reads scoped numbers off the same clock the pipeline
  charges).

Worker processes start with a fresh default registry; they snapshot a scope
and ship the (picklable) :class:`MetricsSnapshot` home, where the parent
folds it in with :meth:`MetricsRegistry.absorb`.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.errors import ObservabilityError
from repro.observability.histogram import Histogram
from repro.observability.snapshot import (
    PATH_SEP,
    MetricsSnapshot,
    _copy_span_tree,
    _merge_span_trees,
)

#: Flight-recorder ring-buffer bound (events kept per registry, newest win).
EVENT_CAPACITY = 65536


class MetricsRegistry:
    """Counters + gauges + histograms + span tree + event ring, one lock.

    ``parent`` (optional) receives a tee of every write — see :func:`scope`.
    """

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._spans: dict[str, dict] = {}
        self._histograms: dict[str, Histogram] = {}
        self._events: "deque[tuple] | None" = None
        self._events_dropped: int = 0
        self.parent = parent

    # -- writes --------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` (>= 0) to counter ``name``, creating it at 0."""
        if value < 0:
            raise ObservabilityError(
                f"counter {name!r} increment must be >= 0, got {value}"
            )
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
        if self.parent is not None:
            self.parent.inc(name, value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new high-water mark."""
        with self._lock:
            if name not in self._gauges or value > self._gauges[name]:
                self._gauges[name] = value
        if self.parent is not None:
            self.parent.gauge_max(name, value)

    def observe(self, name: str, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times) into histogram ``name``."""
        self._observe(name, np.asarray(value, dtype=np.float64).ravel(), count)

    def observe_array(self, name: str, values: "np.ndarray | Any") -> None:
        """Record every element of ``values`` into histogram ``name``
        (vectorised; the cheap way to observe per-pair batch quantities)."""
        self._observe(name, np.asarray(values, dtype=np.float64).ravel(), 1)

    def _observe(self, name: str, values: np.ndarray, count: int) -> None:
        if values.size == 0:
            return
        # Bucketed once and merged up the tee (bit-equal to ``record`` at each).
        sample = Histogram()
        sample.record(values, count)
        registry: "MetricsRegistry | None" = self
        while registry is not None:
            with registry._lock:
                registry._histograms.setdefault(name, Histogram()).merge(sample)
            registry = registry.parent

    def record_event(self, event: "tuple") -> None:
        """Append a flight-recorder event to the bounded ring buffer.

        The newest :data:`EVENT_CAPACITY` events are kept; drops surface as
        the ``obs.trace_dropped`` counter in snapshots, never silently.
        """
        with self._lock:
            if self._events is None:
                self._events = deque(maxlen=EVENT_CAPACITY)
            if (
                self._events.maxlen is not None
                and len(self._events) == self._events.maxlen
            ):
                self._events_dropped += 1
            self._events.append(event)
        if self.parent is not None:
            self.parent.record_event(event)

    def record_span(
        self, path: "tuple[str, ...]", seconds: float, count: int = 1
    ) -> None:
        """Account ``seconds`` to the span at ``path``, creating ancestors.

        Ancestors created on demand start at zero seconds/count; they pick
        up their own time when their own context manager exits (children
        always exit first).
        """
        if not path:
            raise ObservabilityError("span path must be non-empty")
        for part in path:
            if not part or PATH_SEP in part:
                raise ObservabilityError(
                    f"span name must be non-empty and not contain "
                    f"{PATH_SEP!r}, got {part!r}"
                )
        if seconds < 0:
            raise ObservabilityError("cannot account negative span time")
        with self._lock:
            children = self._spans
            node = None
            for part in path:
                node = children.setdefault(
                    part, {"seconds": 0.0, "count": 0, "children": {}}
                )
                children = node["children"]
            node["seconds"] += seconds
            node["count"] += count
        if self.parent is not None:
            self.parent.record_span(path, seconds, count)

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker/rank snapshot into this registry (and the tee),
        its span tree grafted under the calling thread's open span path."""
        from repro.observability.spans import current_path  # imports us

        spans = snapshot.spans
        for name in reversed(current_path()):
            spans = {name: {"seconds": 0.0, "count": 0, "children": spans}}
        with self._lock:
            for k, v in snapshot.counters.items():
                self._counters[k] = self._counters.get(k, 0) + v
            for k, v in snapshot.gauges.items():
                if k not in self._gauges or v > self._gauges[k]:
                    self._gauges[k] = v
            self._spans = _merge_span_trees(self._spans, spans)
            for k, h in snapshot.histograms.items():
                hist = self._histograms.get(k)
                if hist is None:
                    hist = self._histograms[k] = Histogram()
                hist.merge(Histogram.from_dict(h))
            if snapshot.events:
                if self._events is None:
                    self._events = deque(maxlen=EVENT_CAPACITY)
                maxlen = self._events.maxlen or 0
                overflow = len(self._events) + len(snapshot.events) - maxlen
                if overflow > 0:
                    self._events_dropped += min(overflow, len(snapshot.events))
                self._events.extend(snapshot.events)
        if self.parent is not None:
            self.parent.absorb(snapshot)

    # -- reads ---------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Deep-copied frozen view; safe to pickle, merge, or serialise."""
        return self._snapshot(include_events=True)

    def snapshot_values(self) -> MetricsSnapshot:
        """Like :meth:`snapshot` but without copying the event ring.

        A pool worker snapshots its registry for every telemetry heartbeat;
        skipping the (potentially 64Ki-entry) event copy keeps that cheap.
        Trace events still ride home with chunk results.
        """
        return self._snapshot(include_events=False)

    def _snapshot(self, include_events: bool) -> MetricsSnapshot:
        with self._lock:
            counters = dict(self._counters)
            if self._events_dropped:
                counters["obs.trace_dropped"] = (
                    counters.get("obs.trace_dropped", 0) + self._events_dropped
                )
            return MetricsSnapshot(
                counters=counters,
                gauges=dict(self._gauges),
                spans=_copy_span_tree(self._spans),
                histograms={k: h.as_dict() for k, h in self._histograms.items()},
                events=(
                    tuple(self._events) if include_events and self._events else ()
                ),
            )

    def clear(self) -> None:
        """Drop all state (does not touch the parent)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._spans.clear()
            self._histograms.clear()
            self._events = None
            self._events_dropped = 0


_GLOBAL = MetricsRegistry()
_ACTIVE = threading.local()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (what the CLI serialises)."""
    return _GLOBAL


def current() -> MetricsRegistry:
    """The registry instrumentation should write to on this thread."""
    return getattr(_ACTIVE, "registry", None) or _GLOBAL


@contextmanager
def use(registry: MetricsRegistry) -> "Iterator[MetricsRegistry]":
    """Make ``registry`` the current one for this thread inside the block.

    Also the hand-off mechanism into worker threads: capture ``current()``
    in the parent, enter ``use(captured)`` inside the thread body.
    """
    prev = getattr(_ACTIVE, "registry", None)
    _ACTIVE.registry = registry
    try:
        yield registry
    finally:
        _ACTIVE.registry = prev


@contextmanager
def scope() -> "Iterator[MetricsRegistry]":
    """A child registry teeing to the current one.

    ``with scope() as reg: ...`` lets the block read its own isolated
    measurements (``reg.snapshot()``) while everything still lands in the
    enclosing registry chain.
    """
    child = MetricsRegistry(parent=current())
    with use(child):
        yield child
