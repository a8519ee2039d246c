"""Nested timing spans.

``with span("align"): ...`` times the block on the monotonic clock and
accounts it to the *current* registry under the calling thread's span path
("map_reads/align" when entered inside ``span("map_reads")``).  Spans are
exception-safe: the time is recorded and the stack restored whether the
block returns or raises.  Each thread has its own stack, so simulated
cluster ranks (threads) build independent paths that merge in the shared
registry tree.

When flight-recorder tracing is enabled (:mod:`repro.observability.trace`)
every span additionally emits paired begin/end timeline events, so the
aggregated tree and the Chrome trace come from the same instrumentation
points.  The enablement flag is sampled once at span entry so a span whose
body toggles tracing still emits balanced pairs.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

import repro.observability.trace as _trace

from repro.errors import ObservabilityError
from repro.observability.registry import current
from repro.observability.snapshot import PATH_SEP

_STACK = threading.local()


def current_path() -> "tuple[str, ...]":
    """The calling thread's open span path, outermost first."""
    return tuple(getattr(_STACK, "path", ()))


@contextmanager
def detached() -> "Iterator[None]":
    """Run the block with an empty span stack.

    Entry point for work that is a fresh logical unit regardless of how the
    OS delivered it — e.g. forked pool workers inherit the parent's open
    span path, which would silently nest their spans under whatever span the
    parent held at fork time (spawned workers would not), making the tree
    shape depend on the multiprocessing start method.
    """
    prev = current_path()
    _STACK.path = ()
    try:
        yield
    finally:
        _STACK.path = prev


@contextmanager
def span(name: str) -> "Iterator[None]":
    """Time the block and account it to ``current()`` at the nested path."""
    if not name or PATH_SEP in name:
        raise ObservabilityError(
            f"span name must be non-empty and not contain {PATH_SEP!r}, "
            f"got {name!r}"
        )
    path = current_path() + (name,)
    _STACK.path = path
    tracing = _trace.enabled()
    if tracing:
        _trace.span_begin(name)
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        _STACK.path = path[:-1]
        if tracing:
            _trace.span_end(name)
        current().record_span(path, elapsed)


class Laps:
    """The layers of one call, timed as child spans of the open span.

    A call whose layers interleave (per tile, per row) reads the clock at
    each layer boundary: :meth:`lap` charges the time since the previous
    boundary (or construction) to ``name``, one of the declared ``names``.
    :meth:`record` then accounts each layer once, ``count`` times, at
    ``current_path() + (name,)`` — so every declared layer is in the tree,
    at zero seconds if it never ran, and no trace events are emitted.
    """

    __slots__ = ("seconds", "_last")

    def __init__(self, *names: str) -> None:
        self.seconds = dict.fromkeys(names, 0.0)
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] += now - self._last
        self._last = now

    def record(self, count: int = 1) -> None:
        path, registry = current_path(), current()
        for name, seconds in self.seconds.items():
            registry.record_span(path + (name,), seconds, count)
