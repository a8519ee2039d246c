"""Fault-tolerant per-chunk dispatch over real worker processes.

The old multiprocessing backend was a single blocking ``pool.map``: one
crashed, hung, or OOM-killed worker took down (or deadlocked) the whole
run.  This module replaces it with a small supervisor the backend — and
anything else that fans chunks over processes — can share:

* **per-chunk async dispatch** — each worker holds at most one chunk at a
  time over a dedicated duplex pipe (a naturally bounded queue: at most
  ``n_workers`` chunks in flight, the rest pending in the parent);
* **per-chunk timeout** — a deadline starts when a chunk is assigned to an
  initialised (``ready``) worker; a worker past its deadline is killed and
  respawned, and the chunk is retried (``mp.chunk_timeouts``);
* **crash detection** — a worker death (segfault, OOM kill, ``os._exit``)
  surfaces as the pipe closing; the chunk is retried on a fresh worker
  (``mp.worker_deaths``), the dead slot respawned up to a respawn budget;
* **bounded retries with exponential backoff** — every failure requeues
  the chunk with ``attempt + 1`` after ``backoff_base * 2**attempt``
  seconds (``mp.chunk_retries``), up to ``max_retries`` re-dispatches;
* **validated partials** — an optional ``validate(chunk_id, result)``
  hook runs in the parent before a result is accepted; a rejection (e.g.
  a sanitizer failure on a corrupted partial) is just another retryable
  failure (``mp.partial_rejects``), with chunk attribution;
* **graceful degradation** — chunks that exhaust their retries come back
  in :attr:`DispatchOutcome.fallback` so the caller can re-run them
  serially in the parent; the run always completes, and every recovery
  event is reported (:attr:`DispatchOutcome.events`), never silent.

Why not ``multiprocessing.Pool``: a hung ``Pool`` worker cannot be killed
through the public API (its ``AsyncResult`` simply never resolves), and a
dead worker's task is lost with no attribution — exactly the two failure
modes this layer exists to handle.  ``concurrent.futures`` surfaces worker
death as ``BrokenProcessPool`` but poisons the whole executor.  Dedicated
pipes give exact chunk attribution, targeted kills, and per-slot respawn.

Workers are deliberately deterministic: a killed worker can never deliver
a late result (its pipe is closed at kill time), and retried chunks are
pure recomputations, so a run with recoveries produces byte-identical
output to a clean one.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Any, Callable

import repro.observability.trace as trace
from repro.observability import current, global_registry
from repro.observability import livestream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

    from repro.observability.livestream import TelemetryAggregator

__all__ = ["ChunkDispatcher", "DispatchOutcome", "RecoveryEvent"]

#: Parent poll tick (seconds): the upper bound on deadline-check latency.
_TICK = 0.2

#: Message tags on the worker pipe protocol.
_TASK, _STOP = "task", "stop"
_READY, _OK, _ERROR, _INIT_ERROR = "ready", "ok", "error", "init_error"


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action the dispatcher took, with chunk attribution."""

    chunk_id: int
    attempt: int
    kind: str  # "timeout" | "crash" | "error" | "partial_reject" | "init_error"
    detail: str


@dataclass
class DispatchOutcome:
    """Everything one :meth:`ChunkDispatcher.run` produced."""

    #: chunk_id -> worker result, for every chunk that succeeded remotely.
    results: "dict[int, Any]" = field(default_factory=dict)
    #: Chunk ids that exhausted their retries (caller re-runs them serially).
    fallback: "list[int]" = field(default_factory=list)
    #: Every recovery event, in occurrence order (reported, never silent).
    events: "list[RecoveryEvent]" = field(default_factory=list)
    #: Total re-dispatches performed.
    retries: int = 0


def _worker_main(
    conn: "Connection",
    worker_fn: "Callable[[Any, int, int], Any]",
    initializer: "Callable[..., None] | None",
    initargs: "tuple[Any, ...]",
    telemetry_conn: "Connection | None" = None,
    telemetry_interval: float = 1.0,
) -> None:
    """Worker process body: init once, then serve chunk tasks off the pipe.

    With a ``telemetry_conn``, a daemon publisher thread streams the
    worker's whole metrics snapshot + heartbeats over the sideband for the
    whole worker lifetime
    (started only after a successful init, so an init failure stays a
    single loud message on the task pipe), and chunk execution is
    bracketed with busy markers so heartbeats can attribute in-flight
    work.  Telemetry is advisory: nothing on this path can change, delay,
    or reorder the task-pipe protocol.
    """
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as exc:  # noqa: BLE001  # replint: disable=RPL401 - process boundary: init failure must reach the parent as data, not a traceback on a dead pipe
        try:
            conn.send((_INIT_ERROR, -1, 0, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    publishing = telemetry_conn is not None
    if publishing:
        global_registry().clear()  # forked workers inherit the parent's state
        livestream.start_publisher(telemetry_conn, telemetry_interval)
    conn.send((_READY, -1, 0, None))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent died or closed our pipe
            break
        if msg[0] == _STOP:
            break
        _, chunk_id, attempt, payload = msg
        if publishing:
            livestream.mark_busy(chunk_id)
        try:
            result = worker_fn(payload, chunk_id, attempt)
        except BaseException as exc:  # noqa: BLE001  # replint: disable=RPL401 - process boundary: any failure becomes a typed message so the parent can retry with attribution
            conn.send(
                (_ERROR, chunk_id, attempt, f"{type(exc).__name__}: {exc}")
            )
        else:
            conn.send((_OK, chunk_id, attempt, result))
        finally:
            if publishing:
                livestream.mark_idle()
    conn.close()


@dataclass
class _Slot:
    """One worker slot: a process, its pipe, and its in-flight chunk."""

    proc: "BaseProcess"
    conn: "Connection"
    ready: bool = False
    chunk: "tuple[int, int] | None" = None  # (chunk_id, attempt)
    deadline: float = 0.0


class ChunkDispatcher:
    """Supervise ``n_workers`` processes running ``worker_fn`` over chunks.

    ``worker_fn(payload, chunk_id, attempt)`` and ``initializer`` must be
    module-level (picklable) callables; ``initargs`` is shipped to every
    worker once.  Counters are written to the *current* observability
    registry under ``{counter_prefix}.``.

    The worker fleet outlives :meth:`run`: the first call (or an explicit
    :meth:`start`) spawns ``n_workers`` processes, later calls reuse the
    already-initialised, idle fleet (``mp.pool_reuse`` counts each reuse)
    and only dead or retired slots are respawned.  The caller owns the
    lifetime and must call :meth:`close` when done.
    """

    def __init__(
        self,
        ctx: "BaseContext",
        n_workers: int,
        worker_fn: "Callable[[Any, int, int], Any]",
        initializer: "Callable[..., None] | None" = None,
        initargs: "tuple[Any, ...]" = (),
        *,
        timeout: float = 120.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        validate: "Callable[[int, Any], None] | None" = None,
        counter_prefix: str = "mp",
        telemetry: "TelemetryAggregator | None" = None,
    ) -> None:
        self._ctx = ctx
        self._n_workers = max(1, n_workers)
        self._worker_fn = worker_fn
        self._initializer = initializer
        self._initargs = initargs
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._validate = validate
        self._prefix = counter_prefix
        self._telemetry = telemetry
        self._slots: "list[_Slot | None]" = []

    # -- worker lifecycle -----------------------------------------------------
    def _spawn(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        tele_recv = tele_send = None
        if self._telemetry is not None:
            # Dedicated one-way sideband: the task-pipe protocol stays
            # untouched, and telemetry backpressure can never delay results.
            tele_recv, tele_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._worker_fn,
                self._initializer,
                self._initargs,
                tele_send,
                0.0 if self._telemetry is None else self._telemetry.interval,
            ),
            daemon=True,
        )
        proc.start()
        # The child holds its own handle; closing ours makes worker death
        # observable as EOF on the parent end.
        child_conn.close()
        if self._telemetry is not None and tele_recv is not None:
            if tele_send is not None:
                tele_send.close()
            self._telemetry.register(proc.pid, tele_recv)
        return _Slot(proc=proc, conn=parent_conn)

    @staticmethod
    def _kill(slot: _Slot) -> None:
        """Hard-stop a worker and close its pipe (no late results possible)."""
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

    @staticmethod
    def _stop(slot: _Slot) -> None:
        """Graceful stop for an idle worker; escalates to kill."""
        try:
            slot.conn.send((_STOP, -1, 0, None))
        except (OSError, ValueError):  # already dead
            pass
        slot.proc.join(timeout=2.0)
        ChunkDispatcher._kill(slot)

    # -- fleet lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn (or top up) the fleet; idempotent.

        First call spawns ``n_workers`` slots; later calls only respawn
        slots that were retired (``None``) since the last run — a
        deterministic init failure will retire them again, which is the
        desired loud-degradation behaviour, not a spin.
        """
        if not self._slots:
            self._slots = [self._spawn() for _ in range(self._n_workers)]
            trace.instant("mp.pool_start", workers=self._n_workers)
        else:
            for idx, slot in enumerate(self._slots):
                if slot is None:
                    self._slots[idx] = self._spawn()

    def close(self) -> None:
        """Stop every worker and drop the fleet (idempotent)."""
        for slot in self._slots:
            if slot is None:
                continue
            if slot.chunk is None:
                self._stop(slot)
            else:  # pragma: no cover - close with work in flight
                self._kill(slot)
        self._slots = []

    # -- the event loop -------------------------------------------------------
    def run(self, payloads: "list[Any]") -> DispatchOutcome:
        """Dispatch every payload; return results, fallbacks and events."""
        outcome = DispatchOutcome()
        n_chunks = len(payloads)
        if n_chunks == 0:
            return outcome
        reg = current()
        if self._slots:
            # Warm fleet: the whole point of the pool.  Loudly counted
            # so tests can pin zero-respawn reuse.
            reg.inc(f"{self._prefix}.pool_reuse")
            trace.instant("mp.pool_reuse", chunks=n_chunks)
        self.start()
        slots = self._slots
        n_workers = len(slots)
        # Respawn budget: enough for every possible failure to get a fresh
        # worker, finite so a deterministic init crash can't spin forever.
        respawns_left = n_workers + n_chunks * (self._max_retries + 1)
        # (chunk_id, attempt, not-before time) — the retry/backoff queue.
        pending: "deque[tuple[int, int, float]]" = deque(
            (cid, 0, 0.0) for cid in range(n_chunks)
        )
        fallback_set: "set[int]" = set()

        def count(name: str) -> None:
            # The result-path registry, mirrored into the live plane: these
            # are parent-side events no worker snapshot can carry.
            reg.inc(name)
            if self._telemetry is not None:
                self._telemetry.count(name)

        def record_failure(cid: int, attempt: int, kind: str, detail: str) -> None:
            outcome.events.append(RecoveryEvent(cid, attempt, kind, detail))
            counter = {
                "timeout": "chunk_timeouts",
                "crash": "worker_deaths",
                "error": "chunk_errors",
                "partial_reject": "partial_rejects",
            }.get(kind)
            instant = {
                "timeout": "mp.chunk_timeout",
                "crash": "mp.worker_death",
                "error": "mp.chunk_error",
                "partial_reject": "mp.partial_reject",
            }.get(kind)
            if counter is not None:
                count(f"{self._prefix}.{counter}")
            if instant is not None:
                trace.instant(instant, chunk=cid, attempt=attempt, detail=detail)
            if attempt >= self._max_retries:
                fallback_set.add(cid)
                outcome.fallback.append(cid)
            else:
                delay = self._backoff_base * (2.0**attempt)
                pending.append((cid, attempt + 1, time.monotonic() + delay))
                outcome.retries += 1
                count(f"{self._prefix}.chunk_retries")
                trace.instant("mp.chunk_retry", chunk=cid, attempt=attempt + 1)
                trace.counter_sample(
                    f"{self._prefix}.chunk_retries", outcome.retries
                )

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
            while len(outcome.results) + len(fallback_set) < n_chunks:
                live = [s for s in slots if s is not None]
                if not live:
                    # Every worker slot is gone (e.g. deterministic init
                    # failure): degrade the rest of the queue to the caller.
                    while pending:
                        cid, attempt, _ = pending.popleft()
                        if cid not in fallback_set:
                            fallback_set.add(cid)
                            outcome.fallback.append(cid)
                            outcome.events.append(
                                RecoveryEvent(
                                    cid, attempt, "no_workers",
                                    "no live workers remain",
                                )
                            )
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
                    trace.instant(
                        "mp.chunk_dispatch",
                        chunk=cid,
                        attempt=attempt,
                        worker_pid=slot.proc.pid,
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
                        self._kill(slot)
                        replace(idx)
                        if inflight is not None:
                            record_failure(
                                *inflight, "crash",
                                f"worker died (exitcode={slot.proc.exitcode})",
                            )
                        continue
                    if tag == _READY:
                        slot.ready = True
                    elif tag == _INIT_ERROR:
                        # Deterministic: a respawn would fail identically,
                        # so retire the slot instead of burning the budget.
                        inflight = slot.chunk
                        self._kill(slot)
                        slots[idx] = None
                        outcome.events.append(
                            RecoveryEvent(-1, 0, "init_error", str(data))
                        )
                        if inflight is not None:  # pragma: no cover - defensive
                            record_failure(*inflight, "crash", str(data))
                    elif tag == _OK:
                        slot.chunk = None
                        if self._validate is not None:
                            try:
                                self._validate(cid, data)
                            except Exception as exc:  # noqa: BLE001  # replint: disable=RPL401 - validation boundary: any rejection is a retryable chunk failure, not a crash
                                record_failure(
                                    cid, attempt, "partial_reject", str(exc)
                                )
                                continue
                        outcome.results[cid] = data
                    elif tag == _ERROR:
                        slot.chunk = None
                        record_failure(cid, attempt, "error", str(data))

                # Deadline sweep: kill and retry anything past its timeout.
                now = time.monotonic()
                for idx, slot in enumerate(slots):
                    if slot is None or slot.chunk is None or now <= slot.deadline:
                        continue
                    cid, attempt = slot.chunk
                    self._kill(slot)
                    replace(idx)
                    record_failure(
                        cid, attempt, "timeout",
                        f"chunk {cid} exceeded {self._timeout}s deadline",
                    )
        finally:
            # Keep idle workers warm for the next run; only a slot with
            # work still in flight (abnormal exit) is killed — start()
            # respawns it next time, re-attaching instead of re-shipping.
            for idx, slot in enumerate(slots):
                if slot is not None and slot.chunk is not None:
                    # pragma-free: exercised via KeyboardInterrupt tests
                    self._kill(slot)
                    slots[idx] = None
        return outcome


def _wait_time(
    now: float, deadlines: "list[float]", not_before: "list[float]", idle: bool
) -> float:
    """Poll timeout of the dispatch loop, capped at the tick: wake for the
    nearest in-flight deadline and, while a ready worker is ``idle``, for the
    earliest pending retry's backoff.  Pending work with no idle worker does
    not shorten the wait: it is due at once, so a zero timeout would spin
    the parent until a worker answers."""
    wakes = deadlines + not_before if idle else deadlines
    return min([_TICK, *(max(0.0, t - now) for t in wakes)])
