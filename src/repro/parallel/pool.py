"""Persistent shared-memory worker pool (ROADMAP item 2).

:class:`PersistentPool` is the event-service execution substrate behind
``Engine``'s parallel verbs: workers are spawned **once per pool
lifetime**, the big read-only state (genome codes, index CSR arrays) is
published as shared-memory segments (:mod:`repro.parallel.shm`) that
workers map zero-copy, and successive ``run()`` calls stream chunks over
the existing :class:`~repro.parallel.dispatch.ChunkDispatcher` duplex-pipe
machinery — so PR 4's per-chunk timeout / retry / respawn /
serial-fallback semantics and recovery counters survive unchanged.  A
respawned worker re-attaches to the segments (an ``mmap``) instead of
re-receiving the data.

Ownership: the pool owns both the worker fleet and the shared segments;
``close()`` (or the context manager, or the atexit crash net) stops the
workers and unlinks every segment.  Metrics: ``mp.shm_bytes`` gauge and
the ``mp.shm_publish`` trace instant at publish; ``mp.pool_reuse`` counts
warm reuses (in the dispatcher); ``mp.worker_attach_seconds`` is observed
by the worker initializer and ships home with the first chunk snapshot.
"""

from __future__ import annotations

import atexit
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

import repro.observability.trace as trace
from repro.errors import PipelineError
from repro.observability import current
from repro.parallel.dispatch import ChunkDispatcher, DispatchOutcome
from repro.parallel.shm import SharedArrayBundle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.context import BaseContext

    from repro.observability.livestream import TelemetryAggregator

__all__ = ["PersistentPool"]


class PersistentPool:
    """A long-lived fault-tolerant worker fleet with shared broadcast state.

    The pool runs rounds of opaque payloads: how work is cut into them
    (:func:`repro.pipeline.mp_backend.chunk_count`) and what consumes the
    results — for reads, the caller's one accumulator — is the caller's.

    Parameters
    ----------
    ctx, n_workers, worker_fn:
        As for :class:`ChunkDispatcher`; the fleet is spawned once and
        reused across :meth:`run` calls.
    arrays:
        Read-only arrays to publish as shared-memory segments (genome
        codes, index CSR arrays, ...).
    initializer, initargs:
        Worker one-time init.  The initializer receives the publication
        map (``dict[str, SharedArraySpec]``) as its **first** argument,
        followed by ``initargs``.
    timeout, max_retries, backoff_base, validate:
        Per-chunk fault-tolerance knobs, forwarded to the dispatcher.
    telemetry:
        Optional :class:`~repro.observability.livestream.TelemetryAggregator`;
        when given, every spawned worker streams live metric snapshots +
        heartbeats to it over a dedicated sideband pipe (the aggregator's
        lifetime is the caller's — usually the Engine's — concern).
    """

    def __init__(
        self,
        ctx: "BaseContext",
        n_workers: int,
        worker_fn: "Callable[[Any, int, int], Any]",
        arrays: "dict[str, np.ndarray]",
        *,
        initializer: "Callable[..., None] | None" = None,
        initargs: "tuple[Any, ...]" = (),
        timeout: float = 120.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        validate: "Callable[[int, Any], None] | None" = None,
        telemetry: "TelemetryAggregator | None" = None,
    ) -> None:
        if n_workers < 1:
            raise PipelineError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._runs = 0
        self._bundle = SharedArrayBundle()
        for key, arr in arrays.items():
            self._bundle.publish(key, arr)
        current().gauge_max("mp.shm_bytes", self._bundle.nbytes)
        trace.instant(
            "mp.shm_publish",
            segments=len(arrays),
            nbytes=self._bundle.nbytes,
        )
        self._dispatcher = ChunkDispatcher(
            ctx,
            n_workers,
            worker_fn,
            initializer=initializer,
            initargs=(self._bundle.specs,) + tuple(initargs),
            timeout=timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
            validate=validate,
            telemetry=telemetry,
        )
        self._closed = False
        # Crash net: a parent that never reaches close() (KeyboardInterrupt,
        # fatal error) still stops workers and unlinks segments at exit.
        atexit.register(self.close)

    # -- lifecycle ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def runs(self) -> int:
        """Completed :meth:`run` rounds (first one is the cold start)."""
        return self._runs

    @property
    def shm_bytes(self) -> int:
        """Bytes published to shared memory."""
        return self._bundle.nbytes

    @property
    def segment_names(self) -> "list[str]":
        """Owned shared-memory segment names (for leak checks/tests)."""
        return self._bundle.segment_names

    def start(self) -> None:
        """Eagerly spawn the fleet (otherwise the first ``run`` does it)."""
        if self._closed:
            raise PipelineError("PersistentPool is closed")
        self._dispatcher.start()

    def run(self, payloads: "list[Any]") -> DispatchOutcome:
        """Dispatch one round of chunk payloads over the warm fleet."""
        if self._closed:
            raise PipelineError("PersistentPool is closed")
        outcome = self._dispatcher.run(payloads)
        self._runs += 1
        return outcome

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        self._dispatcher.close()
        self._bundle.close()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
