"""Thread-backed communicator with mpi4py semantics and virtual time.

Rank programs run as real threads and exchange real data; every operation
additionally advances the rank's virtual time (:attr:`Comm.now`) per the
LogGP cost model, which is how the simulated cluster produces speedup
numbers on a single-core machine.

The protocol is the six calls the paper's two programs make: ``send``,
``recv``, ``bcast``, ``gather``, ``reduce`` and ``allreduce``.

Semantics notes
---------------
* Collectives are rendezvous operations: all ranks must call them in the
  same order (the MPI contract).  Completion time is
  ``max(arrival clocks) + model cost`` — exact for the BSP-style programs in
  this repository.
* Reductions apply the operator in rank order (0 op 1 op 2 ...), so float
  results are deterministic and independent of thread scheduling.
* Every blocking wait has a timeout; an exceeded timeout raises
  :class:`CommError` (mismatched collectives or a dead peer would otherwise
  hang the process).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from repro.errors import CommError
from repro.parallel.costmodel import FREE, LogGPModel, payload_nbytes

_DEFAULT_TIMEOUT = 120.0


class WorldAborted(CommError):
    """A call that failed only because the world was aborted (a peer failed)."""


class _Mailbox:
    """Per-destination mailbox with (source, tag) matching."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._messages: deque[tuple[int, int, Any, float]] = deque()
        self._aborted = False

    def put(self, source: int, tag: int, payload: Any, arrival: float) -> None:
        with self._cond:
            self._messages.append((source, tag, payload, arrival))
            self._cond.notify_all()

    def get(self, source: int, tag: int, timeout: float) -> tuple[Any, float]:
        import time as _time

        deadline = _time.monotonic() + timeout

        def _find() -> "tuple[Any, float] | None":
            for k, (src, tg, payload, arrival) in enumerate(self._messages):
                if src == source and tg == tag:
                    del self._messages[k]
                    return payload, arrival
            return None

        with self._cond:
            while True:
                if self._aborted:
                    raise WorldAborted("communicator aborted while receiving")
                found = _find()
                if found is not None:
                    return found
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    raise CommError(f"recv(source={source}, tag={tag}) timed out")
                self._cond.wait(timeout=min(0.5, remaining))

    def abort(self) -> None:
        with self._cond:
            self._aborted = True
            self._cond.notify_all()


class _SharedState:
    """State shared by all ranks of one cluster run."""

    def __init__(self, n_ranks: int, cost: LogGPModel, timeout: float) -> None:
        self.n_ranks = n_ranks
        self.cost = cost
        self.timeout = timeout
        self.mailboxes = [_Mailbox() for _ in range(n_ranks)]
        self.slots: list[Any] = [None] * n_ranks
        self.clocks_in: list[float] = [0.0] * n_ranks
        self.pending_action: Any = None
        self.collective_out: Any = None
        # The enter barrier runs the collective's action (reduction, payload
        # sizing, completion-time computation) exactly once, before any rank
        # is released — so every rank reads a fully formed collective_out.
        self.enter = threading.Barrier(n_ranks, action=self._run_pending)
        self.leave = threading.Barrier(n_ranks)

    def _run_pending(self) -> None:
        action = self.pending_action
        if action is not None:
            self.collective_out = action(list(self.slots), list(self.clocks_in))

    def abort(self) -> None:
        self.enter.abort()
        self.leave.abort()
        for mb in self.mailboxes:
            mb.abort()


class Comm:
    """One rank's endpoint of the communicator (the mpi4py-like handle)."""

    def __init__(self, rank: int, shared: _SharedState) -> None:
        if not 0 <= rank < shared.n_ranks:
            raise CommError(f"rank {rank} out of range for size {shared.n_ranks}")
        self.rank = rank
        self.shared = shared
        #: This rank's virtual time in seconds; it never moves backwards.
        self.now = 0.0

    # -- introspection -----------------------------------------------------
    @property
    def size(self) -> int:
        return self.shared.n_ranks

    def account_compute(self, seconds: float) -> None:
        """Charge calibrated compute time to this rank's virtual clock."""
        if seconds < 0:
            raise CommError(f"cannot account negative time ({seconds})")
        self.now += seconds

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a payload; departs at the sender's current virtual time."""
        if not 0 <= dest < self.size:
            raise CommError(f"invalid destination rank {dest}")
        if dest == self.rank:
            raise CommError("self-sends are not supported; restructure the program")
        nbytes = payload_nbytes(obj)
        arrival = self.now + self.shared.cost.p2p_time(nbytes)
        self.shared.mailboxes[dest].put(self.rank, tag, obj, arrival)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking matched receive; advances the clock to message arrival."""
        if not 0 <= source < self.size:
            raise CommError(f"invalid source rank {source}")
        payload, arrival = self.shared.mailboxes[self.rank].get(
            source, tag, self.shared.timeout
        )
        self.now = max(self.now, arrival)
        return payload

    # -- collective plumbing -------------------------------------------------
    def _rendezvous(
        self,
        deposit: Any,
        action: "Callable[[list[Any], list[float]], tuple[Any, float]] | None",
    ) -> Any:
        """Generic two-barrier collective.

        Every rank deposits ``(value, clock)``; the enter barrier's action
        callback runs ``action(slots, clocks)`` exactly once producing
        ``(shared_result, completion_time)``; every rank then reads the
        result and advances its clock, and the leave barrier guards slot
        reuse by the next collective.
        """
        sh = self.shared
        sh.slots[self.rank] = deposit
        sh.clocks_in[self.rank] = self.now
        sh.pending_action = action
        try:
            sh.enter.wait(timeout=sh.timeout)
            result, completion = sh.collective_out
            self.now = max(self.now, completion)
            sh.leave.wait(timeout=sh.timeout)
        except threading.BrokenBarrierError as exc:
            raise WorldAborted(
                "collective aborted (peer failure or mismatched collectives)"
            ) from exc
        return result

    # -- collectives ---------------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; returns it on every rank."""
        self._check_root(root)
        cost, size = self.shared.cost, self.size

        def action(slots: "list[Any]", clocks: "list[float]") -> "tuple[Any, float]":
            payload = slots[root]
            nbytes = payload_nbytes(payload)
            return payload, max(clocks) + cost.bcast_time(size, nbytes)

        return self._rendezvous(obj if self.rank == root else None, action)

    def gather(self, obj: Any, root: int = 0) -> "list[Any] | None":
        """Gather one element per rank to ``root`` (None elsewhere)."""
        self._check_root(root)
        cost, size = self.shared.cost, self.size

        def action(slots: "list[Any]", clocks: "list[float]") -> "tuple[Any, float]":
            per = max(payload_nbytes(v) for v in slots)
            return list(slots), max(clocks) + cost.gather_time(size, per)

        result = self._rendezvous(obj, action)
        return list(result) if self.rank == root else None

    def reduce(
        self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0
    ) -> Any:
        """Reduce with ``op`` in rank order; result on ``root`` only."""
        self._check_root(root)
        cost, size = self.shared.cost, self.size

        def action(slots: "list[Any]", clocks: "list[float]") -> "tuple[Any, float]":
            acc = slots[0]
            for v in slots[1:]:
                acc = op(acc, v)
            per = max(payload_nbytes(v) for v in slots)
            return acc, max(clocks) + cost.reduce_time(size, per)

        result = self._rendezvous(obj, action)
        return result if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Reduce with ``op`` in rank order; result on every rank."""
        cost, size = self.shared.cost, self.size

        def action(slots: "list[Any]", clocks: "list[float]") -> "tuple[Any, float]":
            acc = slots[0]
            for v in slots[1:]:
                acc = op(acc, v)
            per = max(payload_nbytes(v) for v in slots)
            return acc, max(clocks) + cost.allreduce_time(size, per)

        return self._rendezvous(obj, action)

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommError(f"invalid root rank {root}")


def make_world(
    n_ranks: int,
    cost_model: LogGPModel | None = None,
    timeout: float = _DEFAULT_TIMEOUT,
) -> list[Comm]:
    """Create the ``n_ranks`` communicator endpoints of one world."""
    if n_ranks <= 0:
        raise CommError(f"world size must be positive, got {n_ranks}")
    shared = _SharedState(n_ranks, cost_model or FREE, timeout)
    return [Comm(rank, shared) for rank in range(n_ranks)]
