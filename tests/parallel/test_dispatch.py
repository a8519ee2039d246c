"""Unit tests for the pool's fault-tolerant dispatch loop.

These exercise :class:`PersistentPool` directly with tiny arithmetic
workers and nothing published — no genome pipeline — so each recovery path
(remote error, worker death, hang past deadline, rejected partial,
exhausted retries, failed init) is pinned in isolation, on the ``mp.*``
counters, trace instants and result dict that are its only record.  The
fork start method keeps the workers cheap and lets the worker functions
live in this module; the spawn path is covered end-to-end in
``tests/pipeline/test_mp_backend.py``.
"""

import multiprocessing as mp
import os
import time

import pytest

import repro.observability.trace as trace
from repro.observability import scope
from repro.parallel.pool import _TICK, PersistentPool, _wait_time

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _square(state, payload, chunk_id, attempt):
    return payload * payload


def _fail_chunk1_first_attempt(state, payload, chunk_id, attempt):
    if chunk_id == 1 and attempt == 0:
        raise ValueError("transient boom")
    return payload


def _crash_chunk0_first_attempt(state, payload, chunk_id, attempt):
    if chunk_id == 0 and attempt == 0:
        os._exit(70)
    return payload


def _hang_chunk0_first_attempt(state, payload, chunk_id, attempt):
    if chunk_id == 0 and attempt == 0:
        time.sleep(30.0)
    return payload


def _always_fail_chunk2(state, payload, chunk_id, attempt):
    if chunk_id == 2:
        raise ValueError("persistent boom")
    return payload


def _bad_init(specs):
    raise RuntimeError("init exploded")


@pytest.fixture
def traced():
    """Record trace instants for the test (they are off by default)."""
    trace.enable()
    yield
    trace.disable()


@pytest.fixture
def bare_pool():
    """Factory for 2-worker fork pools with nothing published, closed when
    the test ends (the fleet outlives ``run()``; ``conftest.py`` checks
    nothing leaks)."""
    made = []

    def make(worker_fn, **kwargs):
        kwargs.setdefault("timeout", 30.0)
        made.append(
            PersistentPool(mp.get_context("fork"), 2, worker_fn, {}, **kwargs)
        )
        return made[-1]

    yield make
    for fleet in made:
        fleet.close()


#: Every recovery counter the dispatch loop can write.
RECOVERY = (
    "mp.chunk_retries", "mp.chunk_timeouts", "mp.worker_deaths",
    "mp.chunk_errors", "mp.partial_rejects", "mp.worker_init_errors",
)


def recoveries(reg):
    """The nonzero recovery counters of one run."""
    snap = reg.snapshot()
    return {name: snap.counter(name) for name in RECOVERY if snap.counter(name)}


class TestHappyPath:
    def test_all_chunks_complete(self, bare_pool):
        with scope() as reg:
            results = bare_pool(_square).run([1, 2, 3, 4, 5])
        assert results == {0: 1, 1: 4, 2: 9, 3: 16, 4: 25}
        assert recoveries(reg) == {}

    def test_empty_payloads(self, bare_pool):
        assert bare_pool(_square).run([]) == {}


class TestRecovery:
    def test_remote_error_is_retried(self, bare_pool, traced):
        with scope() as reg:
            results = bare_pool(_fail_chunk1_first_attempt).run([10, 20, 30])
        assert results == {0: 10, 1: 20, 2: 30}
        assert recoveries(reg) == {"mp.chunk_errors": 1, "mp.chunk_retries": 1}
        (error,) = reg.snapshot().instants("mp.chunk_error")
        assert error[7]["chunk"] == 1 and error[7]["attempt"] == 0

    def test_worker_death_is_retried_on_fresh_worker(self, bare_pool):
        with scope() as reg:
            results = bare_pool(_crash_chunk0_first_attempt).run([7, 8, 9])
        assert results == {0: 7, 1: 8, 2: 9}
        assert recoveries(reg) == {"mp.worker_deaths": 1, "mp.chunk_retries": 1}

    def test_hang_past_deadline_is_killed_and_retried(self, bare_pool):
        with scope() as reg:
            results = bare_pool(
                _hang_chunk0_first_attempt, timeout=1.0
            ).run([1, 2])
        assert results == {0: 1, 1: 2}
        assert recoveries(reg) == {"mp.chunk_timeouts": 1, "mp.chunk_retries": 1}

    def test_exhausted_retries_degrade_to_fallback(self, bare_pool):
        with scope() as reg:
            results = bare_pool(
                _always_fail_chunk2, max_retries=1
            ).run([1, 2, 3, 4])
        # Chunk 2 is missing: the caller re-runs it serially.
        assert results == {0: 1, 1: 2, 3: 4}
        # attempt 0 failed and was retried; attempt 1 failed and fell back.
        assert recoveries(reg) == {"mp.chunk_errors": 2, "mp.chunk_retries": 1}

    def test_rejected_partial_is_retried(self, bare_pool):
        rejected = []

        def validate(chunk_id, result):
            if chunk_id == 0 and not rejected:
                rejected.append(chunk_id)
                raise ValueError("corrupt partial")

        with scope() as reg:
            results = bare_pool(_square, validate=validate).run([3, 4])
        assert results == {0: 9, 1: 16}
        assert recoveries(reg) == {"mp.partial_rejects": 1, "mp.chunk_retries": 1}

    def test_deterministic_init_failure_degrades_everything(
        self, bare_pool, traced
    ):
        with scope() as reg:
            results = bare_pool(_square, initializer=_bad_init).run([1, 2, 3])
        # No chunk ran remotely: every one falls back to the caller, and
        # each retired worker is counted, not just the fallbacks it causes.
        assert results == {}
        assert recoveries(reg) == {"mp.worker_init_errors": 2}
        (first, _) = reg.snapshot().instants("mp.worker_init_error")
        assert "init exploded" in first[7]["detail"]


class TestWaitTime:
    """The parent's poll timeout: a requeued chunk must not sit out a whole
    tick beside an idle worker, and due work must not spin the parent."""

    def test_idle_worker_wakes_at_the_retry_backoff(self):
        assert _wait_time(10.0, [], [10.01], idle=True) == pytest.approx(0.01)

    def test_due_work_without_an_idle_worker_keeps_the_tick(self):
        # Fresh chunks are due at 0.0; with every worker busy they must not
        # turn the wait into a 0 ms spin.
        assert _wait_time(10.0, [], [0.0, 0.0, 10.01], idle=False) == _TICK

    def test_in_flight_deadlines_alone_are_unchanged(self):
        assert _wait_time(10.0, [10.05, 30.0], [], idle=False) == pytest.approx(0.05)
        assert _wait_time(10.0, [30.0], [], idle=True) == _TICK
        assert _wait_time(10.0, [9.0], [], idle=False) == 0.0
