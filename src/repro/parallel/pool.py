"""Persistent shared-memory worker pool with per-chunk fault tolerance.

:class:`PersistentPool` is the execution substrate behind ``Engine``'s
parallel verbs (the paper's read-spread mode, with the genome in shared
memory for every process).  One object owns three things:

* **the shared segments** — the big read-only state (genome codes, index
  CSR arrays) is published once through :mod:`repro.parallel.shm`, and
  workers map it zero-copy; a respawned worker re-attaches (an ``mmap``)
  instead of re-receiving the data;
* **the worker fleet** — spawned by the first :meth:`~PersistentPool.run`
  and reused by later ones (``mp.pool_reuse`` counts each warm reuse); only
  dead or retired slots are respawned;
* **the event loop** — each worker holds at most one chunk at a time over
  its one duplex pipe (at most ``n_workers`` chunks in flight, the rest
  pending in the parent).  With a telemetry aggregator, the same pipe
  carries the worker's ``_BEAT`` snapshots, which the loop hands to it.

Recovery, chunk by chunk:

* **per-chunk timeout** — a deadline starts when a chunk is assigned to an
  initialised (``ready``) worker; a worker past its deadline is killed and
  respawned, and the chunk is retried (``mp.chunk_timeouts``);
* **crash detection** — a worker death (segfault, OOM kill, ``os._exit``)
  surfaces as the pipe closing; the chunk is retried on a fresh worker
  (``mp.worker_deaths``), the dead slot respawned up to a respawn budget;
* **remote errors** — an exception in ``worker_fn`` comes home as data and
  is retried (``mp.chunk_errors``);
* **validated partials** — an optional ``validate(chunk_id, result)`` hook
  runs in the parent before a result is accepted; a rejection is just
  another retryable failure (``mp.partial_rejects``);
* **init failures** — a worker whose initializer raises is retired, not
  respawned, since a respawn would fail the same way
  (``mp.worker_init_errors``);
* **bounded retries with exponential backoff** — every failure requeues the
  chunk with ``attempt + 1`` after ``BACKOFF_BASE * 2**attempt`` seconds
  (``mp.chunk_retries``), up to ``max_retries`` re-dispatches;
* **graceful degradation** — :meth:`~PersistentPool.run` returns
  ``{chunk_id: result}``; a missing id is a chunk that exhausted its
  retries (or found no live worker), and the caller re-runs it serially.

Every recovery is an ``mp.*`` counter (mirrored into the live telemetry
plane) plus an ``mp.*`` trace instant with chunk attribution; there is no
other record.

Why not ``multiprocessing.Pool``: a hung ``Pool`` worker cannot be killed
through the public API (its ``AsyncResult`` simply never resolves), and a
dead worker's task is lost with no attribution.  ``concurrent.futures``
surfaces worker death as ``BrokenProcessPool`` but poisons the whole
executor.  Dedicated pipes give exact chunk attribution, targeted kills,
and per-slot respawn.  Workers are deterministic: a killed worker can never
deliver a late result (its pipe is closed at kill time), and retried chunks
are pure recomputations, so a run with recoveries produces byte-identical
output to a clean one.

Ownership: ``close()`` (or the context manager, or the atexit crash net)
stops the workers and unlinks every segment.
"""

from __future__ import annotations

import atexit
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

import repro.observability.trace as trace
from repro.errors import PipelineError
from repro.observability import current, global_registry
from repro.parallel.shm import SharedArrayBundle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

    from repro.observability.livestream import TelemetryAggregator

__all__ = ("PersistentPool",)

#: Parent poll tick (seconds): the upper bound on deadline-check latency.
_TICK = 0.2
#: Base of the exponential retry backoff: attempt ``a`` of a failed chunk is
#: requeued after ``BACKOFF_BASE * 2**a`` seconds.
BACKOFF_BASE = 0.05

#: Message tags on the worker pipe protocol.
_TASK, _STOP = "task", "stop"
_READY, _OK, _ERROR, _INIT_ERROR = "ready", "ok", "error", "init_error"
_BEAT = "beat"

#: Retryable failure kinds, each its (counter, trace instant).
_TIMEOUT = ("mp.chunk_timeouts", "mp.chunk_timeout")
_CRASH = ("mp.worker_deaths", "mp.worker_death")
_REMOTE_ERROR = ("mp.chunk_errors", "mp.chunk_error")
_REJECT = ("mp.partial_rejects", "mp.partial_reject")


def _worker_main(
    conn: "Connection",
    worker_fn: "Callable[[Any, Any, int, int], Any]",
    initializer: "Callable[..., Any] | None",
    initargs: "tuple[Any, ...]",
    telemetry_interval: float = 0.0,
) -> None:
    """Worker process body: init once, then serve chunk tasks off the pipe,
    passing each ``worker_fn`` call the state the initializer returned.

    With a non-zero ``telemetry_interval``, a daemon thread sends the
    worker's whole metrics snapshot as a ``_BEAT`` every interval while a
    chunk is in flight, and the loop sends one more right before each
    chunk's reply, so the parent reads a chunk's work before its result.
    One lock serialises every send, so a beat never splits a reply.
    """
    try:
        state = None if initializer is None else initializer(*initargs)
    except BaseException as exc:  # noqa: BLE001 - process boundary: init failure must reach the parent as data, not a traceback on a dead pipe
        try:
            conn.send((_INIT_ERROR, -1, 0, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    lock, in_flight = threading.Lock(), threading.Event()
    if telemetry_interval:
        global_registry().clear()  # forked workers inherit the parent's state
        threading.Thread(
            target=_heartbeats,
            args=(conn, lock, in_flight, telemetry_interval),
            name="repro-telemetry-publisher",
            daemon=True,
        ).start()
    conn.send((_READY, -1, 0, None))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent died or closed our pipe
            break
        if msg[0] == _STOP:
            break
        _, chunk_id, attempt, payload = msg
        in_flight.set()
        try:
            reply = (_OK, chunk_id, attempt, worker_fn(state, payload, chunk_id, attempt))
        except BaseException as exc:  # noqa: BLE001 - process boundary: any failure becomes a typed message so the parent can retry with attribution
            reply = (_ERROR, chunk_id, attempt, f"{type(exc).__name__}: {exc}")
        with lock:
            in_flight.clear()
            if telemetry_interval:
                conn.send(_beat())
            conn.send(reply)
    conn.close()


def _beat() -> "tuple[str, int, int, dict[str, Any]]":
    return (_BEAT, -1, 0, global_registry().snapshot_values().as_dict())


def _heartbeats(
    conn: "Connection",
    lock: threading.Lock,
    in_flight: threading.Event,
    interval: float,
) -> None:
    """Publisher thread: a ``_BEAT`` every ``interval`` while a chunk is in
    flight.  An idle worker sends nothing, so a fleet parked between runs
    never fills a pipe nobody drains."""
    while True:
        in_flight.wait()
        time.sleep(interval)
        with lock:
            if not in_flight.is_set():
                continue
            try:
                conn.send(_beat())
            except (OSError, ValueError):  # parent closed our pipe
                return


@dataclass
class _Slot:
    """One worker slot: a process, its pipe, and its in-flight chunk."""

    proc: "BaseProcess"
    conn: "Connection"
    pid: int
    ready: bool = False
    chunk: "tuple[int, int] | None" = None  # (chunk_id, attempt)
    deadline: float = 0.0


class PersistentPool:
    """A long-lived fault-tolerant worker fleet with shared broadcast state.

    The pool runs rounds of opaque payloads: how work is cut into them
    (:func:`repro.pipeline.mp_backend.chunk_count`) and what consumes the
    results — for reads, the caller's one accumulator — is the caller's.

    Parameters
    ----------
    ctx:
        Multiprocessing context the workers are started from.
    n_workers:
        Fleet size; spawned by the first :meth:`run`, reused by later ones.
    worker_fn:
        ``worker_fn(state, payload, chunk_id, attempt)``, a module-level
        (picklable) callable run in the workers; ``state`` is what the
        worker's initializer returned (``None`` without one).
    arrays:
        Read-only arrays to publish as shared-memory segments (genome
        codes, index CSR arrays, ...).
    initializer, initargs:
        Worker one-time init.  The initializer receives the publication
        map (``dict[str, SharedArraySpec]``) as its **first** argument,
        followed by ``initargs``, and returns the worker's state.
    timeout:
        Per-chunk deadline in seconds, counted from dispatch to a ready
        worker.
    max_retries:
        Re-dispatches per chunk after its first attempt.
    validate:
        Optional parent-side ``validate(chunk_id, result)``; raising rejects
        the result as a retryable failure.
    telemetry:
        Optional :class:`~repro.observability.livestream.TelemetryAggregator`;
        when given, every spawned worker sends live metric snapshots as
        ``_BEAT`` messages on its task pipe, and the event loop feeds them,
        its dispatches and its reaps to the aggregator (whose lifetime is
        the caller's — usually the Engine's — concern).
    """

    def __init__(
        self,
        ctx: "BaseContext",
        n_workers: int,
        worker_fn: "Callable[[Any, Any, int, int], Any]",
        arrays: "dict[str, np.ndarray]",
        *,
        initializer: "Callable[..., Any] | None" = None,
        initargs: "tuple[Any, ...]" = (),
        timeout: float = 120.0,
        max_retries: int = 2,
        validate: "Callable[[int, Any], None] | None" = None,
        telemetry: "TelemetryAggregator | None" = None,
    ) -> None:
        if n_workers < 1:
            raise PipelineError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._ctx = ctx
        self._worker_fn = worker_fn
        self._initializer = initializer
        self._timeout = timeout
        self._max_retries = max_retries
        self._validate = validate
        self._telemetry = telemetry
        self._slots: "list[_Slot | None]" = []
        self._closed = False
        self._bundle = SharedArrayBundle()
        # The one crash net, armed before the first segment exists: a parent
        # that never reaches close() (KeyboardInterrupt, fatal error) still
        # stops the workers and unlinks every segment at exit.
        atexit.register(self.close)
        for key, arr in arrays.items():
            self._bundle.publish(key, arr)
        self._initargs = (self._bundle.specs, *initargs)
        current().gauge_max("mp.shm_bytes", self._bundle.nbytes)
        trace.instant(
            "mp.shm_publish",
            segments=len(arrays),
            nbytes=self._bundle.nbytes,
        )

    # -- lifecycle ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def segment_names(self) -> "list[str]":
        """Owned shared-memory segment names (for leak checks/tests)."""
        return self._bundle.segment_names

    def view(self, key: str) -> np.ndarray:
        """The parent's read-only view of published array ``key``; taken
        before :meth:`close`, it stays valid after (:meth:`SharedArrayBundle.view`)."""
        return self._bundle.view(key)

    def _spawn(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._worker_fn,
                self._initializer,
                self._initargs,
                0.0 if self._telemetry is None else self._telemetry.interval,
            ),
            daemon=True,
        )
        proc.start()
        # The child holds its own handle; closing ours makes worker death
        # observable as EOF on the parent end.
        child_conn.close()
        slot = _Slot(proc=proc, conn=parent_conn, pid=proc.pid or 0)
        if self._telemetry is not None:
            self._telemetry.register(slot.pid)
        return slot

    def _reap(self, slot: _Slot, graceful: bool = False) -> None:
        """Stop a worker — asking first when ``graceful``, then killing —
        and close its pipe (no late results possible); the live view keeps
        its last snapshot."""
        if graceful:
            try:
                slot.conn.send((_STOP, -1, 0, None))
            except (OSError, ValueError):  # already dead
                pass
            slot.proc.join(timeout=2.0)
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if slot.proc.is_alive():
            slot.proc.terminate()
            slot.proc.join(timeout=2.0)
            if slot.proc.is_alive():  # pragma: no cover - SIGTERM ignored
                slot.proc.kill()
                slot.proc.join(timeout=2.0)
        if self._telemetry is not None:
            self._telemetry.forget(slot.pid)

    def _top_up(self) -> None:
        """Spawn the fleet on first use; later, respawn only the slots
        retired since the last run — a deterministic init failure retires
        them again, which is the desired loud degradation, not a spin."""
        if not self._slots:
            self._slots = [self._spawn() for _ in range(self.n_workers)]
            trace.instant("mp.pool_start", workers=self.n_workers)
        else:
            for idx, slot in enumerate(self._slots):
                if slot is None:
                    self._slots[idx] = self._spawn()

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for slot in self._slots:
            if slot is not None:
                self._reap(slot, graceful=slot.chunk is None)
        self._slots = []
        self._bundle.close()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the event loop -------------------------------------------------------
    def run(self, payloads: "list[Any]") -> "dict[int, Any]":
        """Dispatch one round of chunk payloads over the warm fleet.

        Returns ``{chunk_id: result}`` for every chunk a worker completed
        and the parent accepted; a missing id exhausted its retries, and
        the caller re-runs that chunk itself.
        """
        if self._closed:
            raise PipelineError("PersistentPool is closed")
        results: "dict[int, Any]" = {}
        n_chunks = len(payloads)
        if n_chunks == 0:
            return results
        reg = current()
        if self._slots:
            # Warm fleet: the whole point of the pool.  Loudly counted
            # so tests can pin zero-respawn reuse.
            reg.inc("mp.pool_reuse")
            trace.instant("mp.pool_reuse", chunks=n_chunks)
        self._top_up()
        slots = self._slots
        # Respawn budget: enough for every possible failure to get a fresh
        # worker, finite so a deterministic init crash can't spin forever.
        respawns_left = len(slots) + n_chunks * (self._max_retries + 1)
        # (chunk_id, attempt, not-before time) — the retry/backoff queue.
        pending: "deque[tuple[int, int, float]]" = deque(
            (cid, 0, 0.0) for cid in range(n_chunks)
        )
        exhausted: "set[int]" = set()
        retries = 0
        tele = self._telemetry

        def count(name: str) -> None:
            # The result-path registry, mirrored into the live plane: these
            # are parent-side events no worker snapshot can carry.
            reg.inc(name)
            if tele is not None:
                tele.count(name)

        def fail(
            cid: int, attempt: int, kind: "tuple[str, str]", detail: str
        ) -> None:
            nonlocal retries
            counter, instant = kind
            count(counter)
            trace.instant(instant, chunk=cid, attempt=attempt, detail=detail)
            if attempt >= self._max_retries:
                exhausted.add(cid)
                return
            delay = BACKOFF_BASE * (2.0**attempt)
            pending.append((cid, attempt + 1, time.monotonic() + delay))
            retries += 1
            count("mp.chunk_retries")
            trace.instant("mp.chunk_retry", chunk=cid, attempt=attempt + 1)
            trace.counter_sample("mp.chunk_retries", retries)

        def replace(idx: int) -> None:
            nonlocal respawns_left
            if respawns_left > 0:
                respawns_left -= 1
                slots[idx] = self._spawn()
            else:  # pragma: no cover - runaway-failure backstop
                slots[idx] = None

        def pop_due(now: float) -> "tuple[int, int, float] | None":
            for _ in range(len(pending)):
                task = pending.popleft()
                if task[2] <= now:
                    return task
                pending.append(task)
            return None

        try:
            while len(results) + len(exhausted) < n_chunks:
                live = [s for s in slots if s is not None]
                if not live:
                    # Every worker slot is gone (e.g. deterministic init
                    # failure): the rest of the queue falls back to the caller.
                    break
                now = time.monotonic()
                # Assign due work to ready, idle workers.
                for slot in live:
                    if not slot.ready or slot.chunk is not None:
                        continue
                    task = pop_due(now)
                    if task is None:
                        break
                    cid, attempt, _ = task
                    try:
                        slot.conn.send((_TASK, cid, attempt, payloads[cid]))
                    except (OSError, ValueError):
                        # Died between polls; the EOF path below reaps it.
                        pending.appendleft(task)
                        continue
                    slot.chunk = (cid, attempt)
                    slot.deadline = now + self._timeout
                    if tele is not None:
                        tele.busy(slot.pid, cid)
                    trace.instant(
                        "mp.chunk_dispatch",
                        chunk=cid,
                        attempt=attempt,
                        worker_pid=slot.pid,
                    )

                ready_conns = _conn_wait(
                    [s.conn for s in live],
                    timeout=_wait_time(
                        now,
                        [s.deadline for s in live if s.chunk is not None],
                        [task[2] for task in pending],
                        idle=any(s.ready and s.chunk is None for s in live),
                    ),
                )
                for slot in live:
                    if slot.conn not in ready_conns:
                        continue
                    idx = slots.index(slot)
                    try:
                        tag, cid, attempt, data = slot.conn.recv()
                    except (EOFError, OSError):
                        # Worker death: pipe closed without a message.
                        inflight = slot.chunk
                        self._reap(slot)
                        replace(idx)
                        if inflight is not None:
                            fail(
                                *inflight, _CRASH,
                                f"worker died (exitcode={slot.proc.exitcode})",
                            )
                        continue
                    if tag == _BEAT and tele is not None:
                        tele.ingest(slot.pid, data)
                    elif tag == _READY:
                        slot.ready = True
                    elif tag == _INIT_ERROR:
                        # Deterministic: a respawn would fail identically,
                        # so retire the slot instead of burning the budget.
                        # No chunk is lost: a slot gets one only once ready.
                        self._reap(slot)
                        slots[idx] = None
                        count("mp.worker_init_errors")
                        trace.instant("mp.worker_init_error", detail=str(data))
                    elif tag in (_OK, _ERROR):
                        slot.chunk = None
                        if tele is not None:
                            tele.busy(slot.pid, None)
                        if tag == _ERROR:
                            fail(cid, attempt, _REMOTE_ERROR, str(data))
                            continue
                        if self._validate is not None:
                            try:
                                self._validate(cid, data)
                            except Exception as exc:  # noqa: BLE001 - validation boundary: any rejection is a retryable chunk failure, not a crash
                                fail(cid, attempt, _REJECT, str(exc))
                                continue
                        results[cid] = data

                # Deadline sweep: kill and retry anything past its timeout;
                # the stall watchdog flags the slow ones well before that.
                if tele is not None:
                    tele.watchdog()
                now = time.monotonic()
                for idx, slot in enumerate(slots):
                    if slot is None or slot.chunk is None or now <= slot.deadline:
                        continue
                    cid, attempt = slot.chunk
                    self._reap(slot)
                    replace(idx)
                    fail(
                        cid, attempt, _TIMEOUT,
                        f"chunk {cid} exceeded {self._timeout}s deadline",
                    )
        finally:
            # Keep idle workers warm for the next run; only a slot with
            # work still in flight (abnormal exit) is killed — the next run
            # respawns it, re-attaching instead of re-shipping.
            for idx, slot in enumerate(slots):
                if slot is not None and slot.chunk is not None:
                    # pragma-free: exercised via KeyboardInterrupt tests
                    self._reap(slot)
                    slots[idx] = None
        return results


def _wait_time(
    now: float, deadlines: "list[float]", not_before: "list[float]", idle: bool
) -> float:
    """Poll timeout of the event loop, capped at the tick: wake for the
    nearest in-flight deadline and, while a ready worker is ``idle``, for the
    earliest pending retry's backoff.  Pending work with no idle worker does
    not shorten the wait: it is due at once, so a zero timeout would spin
    the parent until a worker answers."""
    wakes = deadlines + not_before if idle else deadlines
    return min([_TICK, *(max(0.0, t - now) for t in wakes)])
