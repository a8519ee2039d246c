"""Tests for the persistent shared-memory worker pool.

Two layers: the :class:`PersistentPool` lifecycle (segment ownership,
reuse, crash recovery, leak-free teardown — including a parent killed by
KeyboardInterrupt), and byte-identity of a faulted pool run against a
clean one.

Pool tests pin the fork start method to keep spawns cheap; the dispatch
semantics are start-method-agnostic (tests/pipeline/test_mp_backend.py).
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.experiments.workload import build_workload
from repro.observability import scope
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.mp_backend import make_pool, map_reads_multiprocessing

SHM_DIR = Path("/dev/shm")


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=47)
    wl.reads = wl.reads[:150]
    return wl


def pool_config(**kwargs):
    kwargs.setdefault("start_method", "fork")
    return PipelineConfig(parallel=ParallelConfig(**kwargs))


def segments_on_disk(names):
    if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
        pytest.skip("/dev/shm not available")
    return [n for n in names if (SHM_DIR / n).exists()]


class TestPoolLifecycle:
    def test_publish_reuse_and_teardown(self, workload):
        pipe = GnumapSnp(workload.reference, pool_config())
        with scope() as reg:
            pool = make_pool(pipe, 2)
            try:
                live = segments_on_disk(pool.segment_names)
                assert set(live) == set(pool.segment_names)

                first = map_reads_multiprocessing(pipe, workload.reads, pool)
                second = map_reads_multiprocessing(pipe, workload.reads, pool)
            finally:
                pool.close()
            snap = reg.snapshot()
        # Warm reuse: the second run found the fleet alive.
        assert snap.counter("mp.pool_reuse") == 1
        assert snap.counter("mp.worker_deaths") == 0
        assert snap.gauges["mp.shm_bytes"] > 0
        # Attach cost was measured in-worker and shipped home.
        hist = snap.histogram("mp.worker_attach_seconds")
        assert hist is not None and hist["count"] >= 1
        # Same reads, same deposits.
        assert np.array_equal(first.snapshot(), second.snapshot())
        # close() unlinked every segment.
        assert segments_on_disk(pool.segment_names) == []
        assert pool.closed

    def test_parent_index_reads_the_published_copy_after_close(self, workload):
        """The parent's index serves from the published arrays, so the
        parent keeps no private copy of the table; unlinking them at
        close() leaves that view readable and serial mapping unchanged."""
        pipe = GnumapSnp(workload.reference, pool_config())
        built = pipe.index
        before = pipe.map_reads(workload.reads).snapshot()
        pool = make_pool(pipe, 2)
        pool.close()
        assert segments_on_disk(pool.segment_names) == []
        assert pipe.index is not built and pipe.seeder.index is pipe.index
        offsets = pipe.index.shared_state()[0]["offsets"]
        assert not offsets.flags.writeable
        assert np.array_equal(offsets, built.shared_state()[0]["offsets"])
        assert np.array_equal(pipe.map_reads(workload.reads).snapshot(), before)

    def test_closed_pool_rejects_runs_and_close_is_idempotent(self, workload):
        pipe = GnumapSnp(workload.reference, pool_config())
        pool = make_pool(pipe, 2)
        pool.close()
        pool.close()
        with pytest.raises(PipelineError):
            pool.run([])


class TestPoolFaultRecovery:
    def test_crashed_worker_reattaches_and_output_is_identical(self, workload):
        clean_pipe = GnumapSnp(workload.reference, pool_config())
        faulted_pipe = GnumapSnp(
            workload.reference, pool_config(fault_spec="crash:chunk=0")
        )
        clean_pool = make_pool(clean_pipe, 2)
        faulted_pool = make_pool(faulted_pipe, 2)
        try:
            clean = map_reads_multiprocessing(
                clean_pipe, workload.reads, clean_pool
            )
            with scope() as reg:
                faulted = map_reads_multiprocessing(
                    faulted_pipe, workload.reads, faulted_pool
                )
            snap = reg.snapshot()
            assert snap.counter("mp.worker_deaths") == 1
            assert snap.counter("mp.chunk_retries") == 1
            # The crash never touched the parent-owned segments...
            live = segments_on_disk(faulted_pool.segment_names)
            assert set(live) == set(faulted_pool.segment_names)
            # ...and the respawned worker re-attached: the attach histogram
            # holds the original fleet plus the replacement.
            hist = snap.histogram("mp.worker_attach_seconds")
            assert hist is not None and hist["count"] >= 1
            # The retried chunk's evidence lands where it always would.
            assert np.array_equal(clean.snapshot(), faulted.snapshot())
        finally:
            clean_pool.close()
            faulted_pool.close()
        assert segments_on_disk(faulted_pool.segment_names) == []


class TestCrashNet:
    """A parent that dies without close() must not leak /dev/shm segments."""

    SCRIPT = textwrap.dedent("""
        import sys
        from repro.api import Engine
        from repro.experiments.workload import build_workload
        from repro.pipeline.config import ParallelConfig, PipelineConfig

        wl = build_workload(scale="tiny", seed=47)
        config = PipelineConfig(parallel=ParallelConfig(start_method="fork"))
        engine = Engine(wl.reference, config, workers=2)
        engine.run(wl.reads[:60])
        print("SEGMENTS " + " ".join(engine._pool.segment_names), flush=True)
        {exit_stmt}
    """)

    def _run(self, exit_stmt):
        if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
            pytest.skip("/dev/shm not available")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(exit_stmt=exit_stmt)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        line = next(
            (ln for ln in proc.stdout.splitlines() if ln.startswith("SEGMENTS ")),
            None,
        )
        assert line is not None, f"warm-up never completed: {proc.stderr[-2000:]}"
        return proc, line.split()[1:]

    def test_normal_exit_without_close_unlinks_segments(self):
        proc, names = self._run("sys.exit(0)")
        assert proc.returncode == 0
        assert names and segments_on_disk(names) == []

    def test_keyboard_interrupt_unlinks_segments(self):
        # An uncaught KeyboardInterrupt still unwinds through atexit: the
        # pool's crash net stops the workers and unlinks every segment.
        proc, names = self._run("raise KeyboardInterrupt")
        assert proc.returncode != 0
        assert names and segments_on_disk(names) == []


class TestLongSeedPublication:
    def test_long_index_arrays_round_trip_through_pool(self, workload):
        """``seed_len=20`` and ``k=20`` are one run: the same one table
        (int64 k-mers) built, published as genome + one triple, attached by
        the workers — same bytes out, serial and pooled."""
        import io

        from repro.api import Engine
        from repro.calling.records import write_snp_calls
        from repro.index.seeding import SeederConfig

        def tsv(result):
            buf = io.StringIO()
            write_snp_calls(buf, result.snps)
            return buf.getvalue()

        par = ParallelConfig(start_method="fork")
        spellings = {
            "seed_len": PipelineConfig(
                k=10, parallel=par,
                seeder=SeederConfig(seed_len=20, qgram_filter=True),
            ),
            "k": PipelineConfig(
                k=20, parallel=par, seeder=SeederConfig(qgram_filter=True)
            ),
        }
        runs = {}
        for workers in (1, 2):
            for spelling, config in spellings.items():
                with scope() as reg, Engine(
                    workload.reference, config, workers=workers
                ) as engine:
                    result = engine.run(workload.reads)
                    pool = engine._pool
                    segments = None if pool is None else len(pool.segment_names)
                snap = reg.snapshot()
                seed_counters = {
                    name: value for name, value in snap.counters.items()
                    if name.startswith("seed.")
                }
                assert seed_counters["seed.candidates"] > 0
                runs[spelling, workers] = (
                    tsv(result), seed_counters, snap.gauges["index.bytes"],
                    result.accumulator.snapshot(),
                    (snap.gauges.get("mp.shm_bytes"), segments),
                )
        first = runs["seed_len", 1]
        for run in runs.values():
            assert run[:3] == first[:3]
            assert np.array_equal(run[3], first[3])
        # Genome + one triple, whichever way the width was spelled.
        assert runs["seed_len", 2][4] == runs["k", 2][4]
        assert runs["k", 2][4][1] == 4

    def test_plain_config_publishes_no_long_arrays(self, workload):
        pipe = GnumapSnp(workload.reference, pool_config())
        pool = make_pool(pipe, 2)
        try:
            # The default width too: genome + one triple.
            assert len(pool.segment_names) == 4
        finally:
            pool.close()
