"""Flight-recorder tracing: timestamped events with lane identity.

Aggregated spans say *where time went*; they cannot show which worker was
stalled while a chunk was retried.  This module adds the missing timeline:
when tracing is enabled, instrumentation appends **timestamped events** to
the current registry's bounded ring buffer —

* span begin/end pairs (``ph`` ``"B"``/``"E"``), emitted automatically by
  :func:`repro.observability.spans.span`;
* instants (``ph`` ``"i"``) for point occurrences such as
  ``mp.chunk_retry``, ``mp.worker_death`` or ``phmm.band_escape``;
* counter samples (``ph`` ``"C"``) graphing a counter's value over time.

Every event carries its **lane identity**: ``(pid, process label, thread
id, thread label)``.  Worker processes label themselves in the pool
initializer; a thread's label is its name, so simulated cluster ranks get
their lane from their ``rank-N`` thread names.  Events are plain tuples inside
:class:`~repro.observability.snapshot.MetricsSnapshot`, so they ride the
existing picklable-snapshot machinery home from spawn/fork workers and
merge (by concatenation; order is normalised at export) exactly like
counters do.  :mod:`repro.observability.chrometrace` turns the merged
events into Chrome trace-event JSON for ``chrome://tracing`` / Perfetto.

Overhead contract: with tracing **disabled** (the default) every hook is a
module-flag check and an immediate return — no clock read, no allocation
beyond the caller's kwargs — budgeted well under 2% of pipeline wall time
(pinned by ``tests/observability/test_trace.py``).  The ring buffer bounds
enabled-mode memory: the newest
:data:`~repro.observability.registry.EVENT_CAPACITY` events are kept per
registry and drops are surfaced as the ``obs.trace_dropped`` counter, never
silently.

Activation: :func:`enable` (the CLI's ``--trace`` calls it).  Pool workers
get the parent's switch with each chunk, never from the environment.

Timestamps are wall-clock microseconds (``time.time_ns() // 1000``) so
lanes from different processes share one timebase.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

import repro.observability.registry as _registry

__all__ = [
    "TraceEvent",
    "counter_sample",
    "disable",
    "enable",
    "enabled",
    "instant",
    "set_process_label",
]

#: One recorded event:
#: ``(ts_us, ph, name, pid, process_label, tid, thread_label, args)``.
#: ``ph`` follows the Chrome trace-event phase vocabulary ("B", "E", "i",
#: "C"); ``args`` is a small JSON-able dict or None.
TraceEvent = "tuple[int, str, str, int, str, int, str, dict[str, Any] | None]"

_enabled: bool = False
_process_label: str = "main"


def enabled() -> bool:
    """Whether event recording is on in this process."""
    return _enabled


def enable() -> None:
    """Turn on event recording."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn off event recording (already-recorded events are kept)."""
    global _enabled
    _enabled = False


def set_process_label(label: str) -> None:
    """Name this process's lane (e.g. ``"worker"``; default ``"main"``).

    Worker initializers call this so exported timelines read as
    ``worker (pid 4242)`` instead of bare pids.
    """
    global _process_label
    _process_label = label


def _event(ph: str, name: str, args: "dict[str, Any] | None") -> "tuple[int, str, str, int, str, int, str, dict[str, Any] | None]":
    return (
        time.time_ns() // 1000,
        ph,
        name,
        os.getpid(),
        _process_label,
        threading.get_ident(),
        threading.current_thread().name,
        args,
    )


def instant(name: str, **args: Any) -> None:
    """Record a point event (``mp.chunk_retry``-style); no-op when disabled.

    Names follow the ``subsystem.metric`` grammar, which
    ``tests/observability/test_pipeline_metrics.py::TestMetricNames`` checks
    on every name a run emits; ``args`` must be small JSON-able scalars.
    """
    if not _enabled:
        return
    _registry.current().record_event(_event("i", name, args or None))


def counter_sample(name: str, value: float) -> None:
    """Record a counter's value at this instant (a ``"C"`` graph point)."""
    if not _enabled:
        return
    _registry.current().record_event(_event("C", name, {"value": value}))


def span_begin(name: str) -> None:
    """Record a span-begin event (called by the span machinery)."""
    _registry.current().record_event(_event("B", name, None))


def span_end(name: str) -> None:
    """Record a span-end event (called by the span machinery)."""
    _registry.current().record_event(_event("E", name, None))
