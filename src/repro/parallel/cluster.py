"""Cluster driver: run an SPMD program over N simulated ranks.

``Cluster(n_ranks, cost_model).run(program, *args)`` spawns one thread per
rank, each executing ``program(comm, *args)``; the return value collects
per-rank results and per-rank virtual times.  A rank raising an exception
aborts the whole world (barriers broken, mailboxes poisoned) and the first
exception is re-raised — mirroring ``MPI_Abort`` semantics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CommError
from repro.observability import current as metrics_current
from repro.observability import span, use
from repro.parallel.comm import Comm, WorldAborted, make_world
from repro.parallel.costmodel import LogGPModel


@dataclass
class ClusterResult:
    """Outcome of one simulated-cluster run.

    Attributes
    ----------
    results:
        Per-rank return values of the program.
    virtual_times:
        Per-rank virtual clocks at program exit (seconds of simulated time).
    """

    results: list[Any]
    virtual_times: list[float]

    @property
    def makespan(self) -> float:
        """Simulated completion time of the slowest rank."""
        return max(self.virtual_times) if self.virtual_times else 0.0


class Cluster:
    """A reusable factory for simulated-cluster runs."""

    def __init__(
        self,
        n_ranks: int,
        cost_model: LogGPModel | None = None,
        timeout: float = 120.0,
    ) -> None:
        if n_ranks <= 0:
            raise CommError(f"n_ranks must be positive, got {n_ranks}")
        self.n_ranks = n_ranks
        self.cost_model = cost_model
        self.timeout = timeout

    def run(self, program: Callable[..., Any], *args: Any) -> ClusterResult:
        """Execute ``program(comm, *args)`` on every rank concurrently."""
        world = make_world(self.n_ranks, self.cost_model, timeout=self.timeout)
        shared = world[0].shared
        results: list[Any] = [None] * self.n_ranks
        errors: list[tuple[int, BaseException]] = []
        lock = threading.Lock()
        # Rank threads start with a fresh thread-local context; hand them the
        # caller's registry so all ranks write one shared tree.
        caller_registry = metrics_current()

        def runner(comm: Comm) -> None:
            try:
                with use(caller_registry):
                    results[comm.rank] = program(comm, *args)
            # Sanctioned boundary: a failing rank must abort the world no
            # matter what it raised; the root cause is re-raised as CommError.
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append((comm.rank, exc))
                shared.abort()

        with span("cluster_run"):
            threads = [
                threading.Thread(target=runner, args=(comm,), name=f"rank-{comm.rank}")
                for comm in world
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        caller_registry.inc("cluster.runs")
        caller_registry.gauge_max("cluster.ranks", self.n_ranks)

        if errors:
            # Aborting the world makes innocent ranks fail with secondary
            # WorldAborted errors; report the root cause — the lowest-ranked
            # other error if any rank has one — and append every rank's
            # message for diagnosis.
            primary = [e for e in errors if not isinstance(e[1], WorldAborted)]
            rank, exc = sorted(primary or errors, key=lambda e: e[0])[0]
            detail = "; ".join(
                f"rank {r}: {type(e).__name__}: {e}" for r, e in sorted(errors)
            )
            raise CommError(f"rank {rank} failed: {exc} [{detail}]") from exc
        return ClusterResult(
            results=results, virtual_times=[comm.now for comm in world]
        )
