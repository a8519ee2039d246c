"""Tests for the real multiprocessing backend, driven the only way it runs:
``Engine(reference, config, workers=n)`` over the persistent shm pool
(small workloads: process startup dominates, so these verify correctness,
not speed).

The fault matrix runs under ``fork`` (``TestFaultRecovery``) and ``spawn``
(``TestFaultRecoverySpawn``); the degenerate layouts pin fork, which keeps
the worker spawns cheap on CI.
"""

import io
import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.calling.records import write_snp_calls
from repro.errors import PipelineError
from repro.experiments.workload import build_workload
from repro.observability import scope
from repro.parallel.partition import partition_reads_contiguous
from repro.phmm import sanitize
from repro.phmm.alignment import LANE_TILE
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import CallResult, GnumapSnp
from repro.pipeline.mp_backend import (
    CHUNKS_PER_WORKER,
    MAX_CHUNK_READS,
    chunk_count,
    make_pool,
    map_reads_multiprocessing,
)
from tests.observability.test_pipeline_metrics import ALIGN_LAYERS, SEED_LAYERS


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=31)
    # trim to keep the process-pool test fast
    wl.reads = wl.reads[:250]
    return wl


@pytest.fixture(scope="module")
def serial_result(workload):
    return GnumapSnp(workload.reference, PipelineConfig()).run(workload.reads)


def _calls(result):
    return {(s.pos, s.alt_name) for s in result.snps}


def _tsv(result):
    buf = io.StringIO()
    write_snp_calls(buf, result.snps)
    return buf.getvalue()


def _assert_same_bytes(result, serial):
    assert _tsv(result) == _tsv(serial)
    assert np.array_equal(
        result.accumulator.snapshot(), serial.accumulator.snapshot()
    )
    for key, value in serial.accumulator.to_buffers().items():
        np.testing.assert_array_equal(
            result.accumulator.to_buffers()[key], value, err_msg=key
        )


def _config(method="fork", accumulator="NORM", **kwargs):
    return PipelineConfig(
        accumulator=accumulator,
        parallel=ParallelConfig(start_method=method, **kwargs),
    )


def _run(workload, reads, config=None, n_workers=2):
    with Engine(workload.reference, config, workers=n_workers) as engine:
        return engine.run(reads)


class TestMultiprocessingBackend:
    def test_single_worker_is_serial(self, workload, serial_result):
        mp1 = _run(workload, workload.reads, n_workers=1)
        assert _tsv(mp1) == _tsv(serial_result)

    def test_two_workers_match_serial(self, workload, serial_result):
        mp2 = _run(workload, workload.reads)
        _assert_same_bytes(mp2, serial_result)
        assert mp2.stats.n_reads == len(workload.reads)

    def test_reads_per_second_is_per_parent_wall_second(self, workload):
        # The stage leaves of a pool run are worker-summed CPU seconds;
        # throughput divides by the parent's map_parallel wall instead.
        mp2 = _run(workload, workload.reads)
        wall = mp2.metrics.span_seconds("map_parallel")
        assert wall > 0
        assert mp2.reads_per_second * wall == pytest.approx(len(workload.reads))

    def test_worker_tiles_ship_home(self, workload):
        # 250 reads make two 125-read chunks: each worker's call is one
        # tile, as wide as its chunk's pairs.
        with scope() as reg:
            mp2 = _run(workload, workload.reads)
        hist = reg.snapshot().histogram("phmm.tile_lanes")
        assert hist["count"] == chunk_count(len(workload.reads), 2)
        assert hist["sum"] == mp2.stats.n_pairs
        # So do their layer spans, under the span that dispatched them.
        worker = mp2.metrics.span_node("map_parallel/map_reads")["children"]
        assert set(ALIGN_LAYERS) <= set(worker["align"]["children"])
        assert set(SEED_LAYERS) <= set(worker["seed"]["children"])
        assert "weigh" in worker

    def test_zero_workers_rejected(self, workload):
        with pytest.raises(PipelineError):
            Engine(workload.reference, workers=0)

    def test_empty_reads(self, workload):
        assert _run(workload, []).snps == []


class TestStartMethods:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_method_matches_serial(self, workload, serial_result, method):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        result = _run(workload, workload.reads, _config(method))
        assert _calls(result) == _calls(serial_result)


class TestChunkCount:
    @pytest.mark.parametrize(
        "n_reads, workers, expected",
        [
            (646, 2, 2),  # the ledger's round: one 323-read chunk a worker
            (1000, 2, 2),
            (1936, 2, 6),  # `tiny`
            (5000, 2, 2 * CHUNKS_PER_WORKER),
            (3, 8, 3),  # at most one chunk per read
            # Past workers * CHUNKS_PER_WORKER * MAX_CHUNK_READS reads the
            # per-chunk cap sets the count, not the fleet size.
            (20 * MAX_CHUNK_READS + 1, 2, 21),
        ],
    )
    def test_chunk_count(self, n_reads, workers, expected):
        assert chunk_count(n_reads, workers) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        n_reads=st.integers(min_value=1, max_value=50_000),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_chunks_fill_tiles_within_the_caps(self, n_reads, workers):
        count = chunk_count(n_reads, workers)
        sizes = [len(part) for part in partition_reads_contiguous(n_reads, count)]
        assert 1 <= count <= n_reads
        assert max(sizes) <= MAX_CHUNK_READS
        cap_binds = -(-n_reads // MAX_CHUNK_READS) > workers * CHUNKS_PER_WORKER
        if workers <= n_reads and not cap_binds:
            assert count % workers == 0
        if n_reads >= workers * LANE_TILE:
            assert min(sizes) >= LANE_TILE


class TestDegenerateLayouts:
    def test_more_workers_than_reads(self, workload):
        reads = workload.reads[:3]
        serial = GnumapSnp(workload.reference, PipelineConfig()).run(reads)
        with scope() as reg:
            result = _run(workload, reads, _config(), n_workers=8)
        assert _calls(result) == _calls(serial)
        snap = reg.snapshot()
        # 3 reads -> 3 chunks: only 3 of the 8 requested workers can work.
        assert snap.gauges["mp.workers"] == 8
        assert snap.gauges["mp.workers_effective"] == 3

    def test_zero_reads_parallel_reports_serial_fallback(self, workload):
        with scope() as reg:
            result = _run(workload, [], n_workers=4)
        assert result.snps == []
        snap = reg.snapshot()
        # The degenerate serial path is visible in metrics, never silent.
        assert snap.counter("mp.serial_fallbacks") == 1
        assert snap.gauges["mp.workers_effective"] == 1

    def test_single_read_runs_serial(self, workload):
        with scope() as reg:
            result = _run(workload, workload.reads[:1], n_workers=4)
        assert result.stats.n_reads == 1
        snap = reg.snapshot()
        assert snap.counter("mp.serial_fallbacks") == 1
        assert snap.gauges["mp.workers_effective"] == 1


class TestFaultRecovery:
    """Every recovery path over the pool: the faulted run deposits the same
    evidence in the same order, so its bytes are the serial run's; recovery
    counters exact."""

    method = "fork"

    @pytest.fixture(autouse=True)
    def _need_start_method(self):
        if self.method not in mp.get_all_start_methods():
            pytest.skip(f"{self.method} start method unavailable")

    def test_crash_and_hang_recover_with_identical_output(
        self, workload, serial_result
    ):
        # The acceptance scenario: one crashed worker plus one hang past
        # the chunk deadline; the run completes, the calls match serial,
        # and the recovery counters tell the story.
        faulted = _config(
            self.method,
            fault_spec="crash:chunk=0;hang:chunk=1,secs=30",
            chunk_timeout=2.0,
        )
        with scope() as reg:
            result = _run(workload, workload.reads, faulted)
        snap = reg.snapshot()
        assert snap.counter("mp.worker_deaths") == 1
        assert snap.counter("mp.chunk_timeouts") == 1
        assert snap.counter("mp.chunk_retries") == 2
        assert snap.counter("mp.serial_fallbacks") == 0
        _assert_same_bytes(result, serial_result)

    def test_corrupt_partial_is_rejected_and_retried(self, workload):
        # The NaN rides the shipped evidence, so it bites whatever the
        # accumulator's own buffers hold.
        for accumulator in ("NORM", "CHARDISC", "CENTDISC"):
            faulted = _config(self.method, accumulator, fault_spec="corrupt:chunk=0")
            serial = GnumapSnp(workload.reference, faulted).run(workload.reads)
            with sanitize.sanitized(True), scope() as reg:
                result = _run(workload, workload.reads, faulted)
            snap = reg.snapshot()
            assert snap.counter("mp.partial_rejects") == 1, accumulator
            assert snap.counter("mp.chunk_retries") == 1, accumulator
            # The poisoned evidence never reached the accumulator.
            assert np.isfinite(result.accumulator.snapshot()).all(), accumulator
            _assert_same_bytes(result, serial)

    def test_corrupt_partial_rejected_sanitizer_off(self, workload):
        # Pre-deposit validation is not a debug mode: the parent checks
        # every chunk's evidence whether or not the sanitizer is on.
        faulted = _config(self.method, fault_spec="corrupt:chunk=0")
        pipe = GnumapSnp(workload.reference, faulted)
        with sanitize.sanitized(False), scope() as reg, make_pool(pipe, 2) as pool:
            acc = map_reads_multiprocessing(pipe, workload.reads, pool)
        assert reg.snapshot().counter("mp.partial_rejects") == 1
        assert np.isfinite(acc.snapshot()).all()

    def test_exhausted_retries_degrade_to_serial_fallback(
        self, workload, serial_result
    ):
        # A chunk that fails every attempt must complete serially in the
        # parent — the run never dies, the degradation is counted.
        faulted = _config(
            self.method, fault_spec="crash:chunk=0,times=10", max_retries=1
        )
        with scope() as reg:
            result = _run(workload, workload.reads, faulted)
        snap = reg.snapshot()
        assert snap.counter("mp.serial_fallbacks") == 1
        assert snap.counter("mp.worker_deaths") == 2
        assert snap.counter("mp.chunk_retries") == 1
        _assert_same_bytes(result, serial_result)

    def test_env_var_is_not_a_fault_plan(self, workload, monkeypatch):
        """Faults are injected through ``fault_spec`` only: ``REPRO_FAULTS``
        in the environment (which spawned and forked workers inherit) is
        not read."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:chunk=0")
        with scope() as reg:
            _run(workload, workload.reads, _config(self.method))
        assert reg.snapshot().counter("mp.worker_deaths") == 0


class TestFaultRecoverySpawn(TestFaultRecovery):
    """The same matrix from spawned workers: no inherited state, every
    worker (and every respawn) attaches the segments by name."""

    method = "spawn"


class TestSerialPoolContract:
    """The one owner of the serial-vs-pool contract (module docstring of
    :mod:`repro.pipeline.mp_backend`): workers return evidence and the
    parent gives every position the serial run's contributions in the
    serial run's order, so TSV bytes and accumulator are identical to
    ``GnumapSnp.run`` at any worker count,
    under every memory mode, however the reads were fed or what failed."""

    MODES = ["NORM", "CHARDISC", "CENTDISC"]

    @pytest.mark.parametrize("accumulator", MODES)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_pool_bytes_equal_serial(self, seed, accumulator):
        wl = build_workload(scale="tiny", seed=seed)
        reads = wl.reads[:150]
        config = _config(accumulator=accumulator)
        serial = GnumapSnp(wl.reference, config).run(reads)
        for n_workers in (1, 2, 3):
            _assert_same_bytes(_run(wl, reads, config, n_workers), serial)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_pool_buffers_equal_serial_across_batch_boundaries(
        self, workload, n_workers
    ):
        """CHARDISC's state is the per-position order of its contributions,
        not the batches they arrive in: the pool parent cuts its deposits at
        other reads than the serial run and leaves the same buffers."""
        # A batch wider than the whole run: serial deposits it in one call,
        # the pool parent once per chunk.
        config = PipelineConfig(
            accumulator="CHARDISC",
            batch_size=10 * len(workload.reads),
            parallel=ParallelConfig(start_method="fork"),
        )
        serial = GnumapSnp(workload.reference, config).run(workload.reads)
        pooled = _run(workload, workload.reads, config, n_workers)
        assert serial.stats.n_batches == 1
        assert pooled.stats.n_batches == chunk_count(len(workload.reads), n_workers)
        assert pooled.stats.n_pairs == serial.stats.n_pairs
        _assert_same_bytes(pooled, serial)

    @pytest.mark.parametrize("accumulator", MODES)
    def test_staged_pool_equals_serial(self, workload, accumulator):
        config = _config(accumulator=accumulator)
        serial = GnumapSnp(workload.reference, config).run(workload.reads)
        with Engine(workload.reference, config, workers=2) as engine:
            engine.map_reads(workload.reads[:100])
            engine.map_reads(workload.reads[100:])
            staged = engine.call()
        _assert_same_bytes(staged, serial)

    def test_warm_pool_reruns_equal_serial(self, workload, serial_result):
        """A worker carries nothing from one chunk to the next: the same
        reads mapped three times over one warm fleet give serial bytes each
        time.  Rounds after the first hand every worker the chunk it had in
        the round before, so state a worker kept would show."""
        with Engine(workload.reference, _config(), workers=2) as engine:
            for _ in range(3):
                _assert_same_bytes(engine.run(workload.reads), serial_result)

    def test_faulted_pool_equals_serial(self, workload, serial_result):
        faulted = _config(fault_spec="crash:chunk=0;corrupt:chunk=1")
        with scope() as reg:
            result = _run(workload, workload.reads, faulted)
        snap = reg.snapshot()
        assert snap.counter("mp.worker_deaths") == 1
        assert snap.counter("mp.partial_rejects") == 1
        _assert_same_bytes(result, serial_result)

    def test_retry_on_the_worker_that_mapped_the_chunk(self, workload, serial_result):
        """With one worker, the rejected chunk's retry always lands on the
        worker that mapped it the first time, so state that worker kept from
        the rejected attempt would show in the bytes."""
        pipe = GnumapSnp(workload.reference, _config(fault_spec="corrupt:chunk=0"))
        with scope() as reg, make_pool(pipe, 1) as pool:
            acc = map_reads_multiprocessing(pipe, workload.reads, pool)
        assert reg.snapshot().counter("mp.partial_rejects") == 1
        retried = CallResult(pipe.call_snps(acc), acc, reg.snapshot_values())
        _assert_same_bytes(retried, serial_result)
