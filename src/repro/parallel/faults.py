"""Deterministic fault injection for the fault-tolerant process backend.

Genome-scale runs make worker failure the rule, not the exception; the
recovery paths in :mod:`repro.parallel.pool` are only trustworthy if
they can be exercised on demand, deterministically, in CI.  This module
provides that: a tiny spec grammar describing *which* chunk attempts fail
and *how*, parsed once in the parent and shipped (picklable) to every
worker through the pool initializer.

Spec grammar (``ConfigError`` on violation)::

    spec   := clause (";" clause)*
    clause := mode [":" key "=" value ("," key "=" value)*]
    mode   := "crash" | "hang" | "corrupt"
    key    := "chunk" | "times" | "secs"

* ``crash`` — the worker process dies hard (``os._exit``), simulating a
  segfault or an OOM kill.  The parent sees the pipe close.
* ``hang`` — the worker sleeps ``secs`` (default far past any sane chunk
  timeout) before proceeding, simulating a wedged worker; the parent's
  per-chunk deadline fires and the worker is killed.
* ``corrupt`` — the chunk computes normally but its evidence comes home
  poisoned with ``NaN``; the parent's chunk-level validation
  (:func:`repro.phmm.sanitize.check_partial`, always on) must reject it
  before it can reach the accumulator.

Targeting: ``chunk=<int>`` pins a clause to one chunk id; otherwise the
clause applies to every chunk.  ``times`` (default 1) bounds how many
*attempts* of a chunk fire the fault — the default makes every fault
transient: attempt 0 fails, the retry succeeds.

Activation: ``ParallelConfig.fault_spec`` (the CLI's ``--fault-spec``).  An
empty spec parses to the falsy :data:`EMPTY_PLAN`, whose hooks are no-ops.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = (
    "EMPTY_PLAN",
    "FaultClause",
    "FaultPlan",
    "corrupt_buffers",
    "parse_fault_spec",
)

#: Exit code a ``crash`` clause kills the worker with (visible in logs).
CRASH_EXIT_CODE = 70

_MODES = ("crash", "hang", "corrupt")
_KEYS = ("chunk", "times", "secs")


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec."""

    mode: str
    chunk: "int | None" = None
    times: int = 1
    secs: float = 3600.0

    def fires(self, chunk_id: int, attempt: int) -> bool:
        """Does this clause fire for attempt ``attempt`` of ``chunk_id``?"""
        if attempt >= self.times:
            return False
        return self.chunk is None or chunk_id == self.chunk


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault clauses; picklable, immutable, cheap to ship."""

    clauses: "tuple[FaultClause, ...]" = ()

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def clause_for(
        self, chunk_id: int, attempt: int, mode: "str | None" = None
    ) -> "FaultClause | None":
        """First clause (optionally of ``mode``) firing for this attempt."""
        for clause in self.clauses:
            if mode is not None and clause.mode != mode:
                continue
            if clause.fires(chunk_id, attempt):
                return clause
        return None

    def inject_pre_compute(self, chunk_id: int, attempt: int) -> None:
        """Apply crash/hang faults; called in the worker before mapping."""
        if not self.clauses:
            return
        if self.clause_for(chunk_id, attempt, mode="crash") is not None:
            # Hard death: no exception, no cleanup — the closest stand-in
            # for a segfault / OOM kill the parent must survive.
            os._exit(CRASH_EXIT_CODE)
        hang = self.clause_for(chunk_id, attempt, mode="hang")
        if hang is not None:
            time.sleep(hang.secs)

    def corrupts(self, chunk_id: int, attempt: int) -> bool:
        """Should this attempt's shipped evidence be poisoned?"""
        return self.clause_for(chunk_id, attempt, mode="corrupt") is not None


EMPTY_PLAN = FaultPlan()


def corrupt_buffers(buffers: "dict[str, np.ndarray]") -> "dict[str, np.ndarray]":
    """Poison a copy of a worker's named result arrays with ``NaN``.

    The first floating-point buffer gets a ``NaN`` planted in its first
    element — exactly the class of in-transit corruption the parent's
    pre-deposit check exists to catch.  Integer-only buffer sets are
    returned unchanged: there is no legal ``NaN`` to plant.
    """
    out = dict(buffers)
    for name, arr in out.items():
        arr = np.asarray(arr)
        if np.issubdtype(arr.dtype, np.floating) and arr.size:
            poisoned = arr.copy()
            poisoned.flat[0] = np.nan
            out[name] = poisoned
            break
    return out


def _parse_clause(text: str) -> FaultClause:
    head, _, tail = text.partition(":")
    mode = head.strip().lower()
    if mode not in _MODES:
        raise ConfigError(
            f"unknown fault mode {mode!r}; choose from {list(_MODES)}"
        )
    kwargs: dict[str, "int | float"] = {}
    if tail.strip():
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().lower()
            if not eq or key not in _KEYS:
                raise ConfigError(
                    f"bad fault clause item {item.strip()!r}; expected "
                    f"key=value with key in {list(_KEYS)}"
                )
            try:
                if key in ("chunk", "times"):
                    kwargs[key] = int(value)
                else:
                    kwargs[key] = float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for fault key {key!r}: {value.strip()!r}"
                ) from exc
    clause = FaultClause(
        mode=mode,
        chunk=int(kwargs["chunk"]) if "chunk" in kwargs else None,
        times=int(kwargs.get("times", 1)),
        secs=float(kwargs.get("secs", 3600.0)),
    )
    if clause.times < 1:
        raise ConfigError(f"fault times must be >= 1, got {clause.times}")
    if clause.chunk is not None and clause.chunk < 0:
        raise ConfigError(f"fault chunk must be >= 0, got {clause.chunk}")
    if clause.secs <= 0:
        raise ConfigError(f"fault secs must be > 0, got {clause.secs}")
    return clause


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a fault spec string; ``""`` yields the empty (no-op) plan."""
    clauses = tuple(
        _parse_clause(part) for part in spec.split(";") if part.strip()
    )
    return FaultPlan(clauses=clauses) if clauses else EMPTY_PLAN
