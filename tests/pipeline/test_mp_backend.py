"""Tests for the real multiprocessing backend, driven the only way it runs:
``Engine(reference, config, workers=n)`` over the persistent shm pool
(small workloads: process startup dominates, so these verify correctness,
not speed).

The fault matrix runs under ``fork`` (``TestFaultRecovery``) and ``spawn``
(``TestFaultRecoverySpawn``); the degenerate layouts pin fork, which keeps
the worker spawns cheap on CI.
"""

import io
import math
import multiprocessing as mp

import numpy as np
import pytest

from repro.api import Engine
from repro.calling.records import write_snp_calls
from repro.errors import PipelineError
from repro.experiments.workload import build_workload
from repro.observability import scope
from repro.phmm import sanitize
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.mp_backend import make_pool, map_reads_multiprocessing


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


def _config(method="fork", **kwargs):
    # Byte-identity assertions need a pinned chunking: autotune only changes
    # latency, but float merge order is chunking-dependent.
    kwargs.setdefault("autotune_chunks", False)
    return PipelineConfig(parallel=ParallelConfig(start_method=method, **kwargs))


def _run(workload, reads, config=None, n_workers=2):
    with Engine(workload.reference, config, workers=n_workers) as engine:
        return engine.run(reads)


class TestMultiprocessingBackend:
    def test_single_worker_is_serial(self, workload, serial_result):
        mp1 = _run(workload, workload.reads, n_workers=1)
        assert _tsv(mp1) == _tsv(serial_result)

    def test_two_workers_match_serial(self, workload, serial_result):
        mp2 = _run(workload, workload.reads)
        assert _calls(mp2) == _calls(serial_result)
        assert np.allclose(
            mp2.accumulator.snapshot(),
            serial_result.accumulator.snapshot(),
            atol=1e-3,
        )
        assert mp2.stats.n_reads == len(workload.reads)

    def test_reads_per_second_is_per_parent_wall_second(self, workload):
        # The stage leaves of a pool run are worker-summed CPU seconds;
        # throughput divides by the parent's map_parallel wall instead.
        mp2 = _run(workload, workload.reads)
        wall = mp2.metrics.span_seconds("map_parallel")
        assert wall > 0
        assert mp2.reads_per_second * wall == pytest.approx(len(workload.reads))

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
    """Every recovery path over the pool: calls byte-identical to a clean
    run of the same chunking, recovery counters exact."""

    method = "fork"

    @pytest.fixture(autouse=True)
    def _need_start_method(self):
        if self.method not in mp.get_all_start_methods():
            pytest.skip(f"{self.method} start method unavailable")

    @pytest.fixture(scope="class")
    def clean(self, workload):
        return _run(workload, workload.reads, _config(self.method))

    def _assert_identical_to_clean(self, result, clean):
        # A faulted run merges the same partials in the same order as a
        # clean run of the same chunking.
        assert _tsv(result) == _tsv(clean)
        assert np.array_equal(
            result.accumulator.snapshot(), clean.accumulator.snapshot()
        )

    def test_crash_and_hang_recover_with_identical_output(
        self, workload, serial_result, clean
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
        assert _calls(result) == _calls(serial_result)
        snap = reg.snapshot()
        assert snap.counter("mp.worker_deaths") == 1
        assert snap.counter("mp.chunk_timeouts") == 1
        assert snap.counter("mp.chunk_retries") == 2
        assert snap.counter("mp.serial_fallbacks") == 0
        self._assert_identical_to_clean(result, clean)

    def test_corrupt_partial_is_rejected_and_retried(
        self, workload, serial_result, clean
    ):
        faulted = _config(self.method, fault_spec="corrupt:chunk=0")
        with sanitize.sanitized(True), scope() as reg:
            result = _run(workload, workload.reads, faulted)
        assert _calls(result) == _calls(serial_result)
        snap = reg.snapshot()
        assert snap.counter("mp.partial_rejects") == 1
        assert snap.counter("mp.chunk_retries") == 1
        # The poisoned partial never reached the merge.
        assert np.isfinite(result.accumulator.snapshot()).all()
        self._assert_identical_to_clean(result, clean)

    def test_corrupt_partial_ignored_without_sanitizer_validation(
        self, workload
    ):
        # Without the sanitizer the pre-merge validation hook is off: the
        # poison flows through — exactly why the CI fault smoke runs with
        # validation on.  This pins the gating, not a desirable outcome.
        faulted = _config(self.method, fault_spec="corrupt:chunk=0")
        pipe = GnumapSnp(workload.reference, faulted)
        with sanitize.sanitized(False), scope() as reg, make_pool(pipe, 2) as pool:
            merged, _ = map_reads_multiprocessing(pipe, workload.reads, pool)
        assert reg.snapshot().counter("mp.partial_rejects") == 0
        assert np.isnan(merged.snapshot()).any()

    def test_exhausted_retries_degrade_to_serial_fallback(
        self, workload, serial_result, clean
    ):
        # A chunk that fails every attempt must complete serially in the
        # parent — the run never dies, the degradation is counted.
        faulted = _config(
            self.method, fault_spec="crash:chunk=0,times=10", max_retries=1
        )
        with scope() as reg:
            result = _run(workload, workload.reads, faulted)
        assert _calls(result) == _calls(serial_result)
        snap = reg.snapshot()
        assert snap.counter("mp.serial_fallbacks") == 1
        assert snap.counter("mp.worker_deaths") == 2
        assert snap.counter("mp.chunk_retries") == 1
        self._assert_identical_to_clean(result, clean)

    def test_env_var_activates_fault_plan(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:chunk=0")
        with scope() as reg:
            _run(workload, workload.reads, _config(self.method))
        assert reg.snapshot().counter("mp.worker_deaths") == 1


class TestFaultRecoverySpawn(TestFaultRecovery):
    """The same matrix from spawned workers: no inherited state, every
    worker (and every respawn) attaches the segments by name."""

    method = "spawn"


class TestSerialPoolContract:
    """The stated serial-vs-pool contract (module docstring of
    :mod:`repro.pipeline.mp_backend`): same chunking -> byte-identical
    calls; across worker counts -> identical call set, numeric columns
    within a relative 1e-3 (float32 NORM partials sum in chunk order)."""

    REL_TOL = 1e-3

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_same_chunking_identical_across_workers_within_tolerance(self, seed):
        wl = build_workload(scale="tiny", seed=seed)
        reads = wl.reads[:250]
        serial = _run(wl, reads, _config(), n_workers=1)
        first = _run(wl, reads, _config())
        second = _run(wl, reads, _config())

        assert _tsv(first) == _tsv(second)

        def call_set(result):
            return [
                (s.pos, s.ref_name, s.alt_name, s.call.heterozygous)
                for s in result.snps
            ]

        assert call_set(first) == call_set(serial)
        for a, b in zip(first.snps, serial.snps):
            for column in ("depth", "stat", "pvalue"):
                x, y = getattr(a.call, column), getattr(b.call, column)
                assert math.isclose(x, y, rel_tol=self.REL_TOL), (a.pos, column)
