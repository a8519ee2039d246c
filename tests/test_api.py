"""Tests for the public facade (:mod:`repro.api`).

The facade is a thin composition over the internal pipeline, so every test
is an equivalence: whatever verb combination the caller picks — one-shot
``run``, staged ``map_reads``+``call``, engine ``workers`` over the
persistent pool, banded or full kernels — the SNP output is the same.
The engine's resource lifecycle (pool ownership, context manager, worker
resize) is covered here; the pool internals live in
``tests/parallel/test_pool.py``.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.api import CallResult, Engine
from repro.errors import PipelineError
from repro.experiments.workload import build_workload
from repro.genome.fasta import write_fasta
from repro.observability import scope
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import GnumapSnp


def fork_config(**kwargs):
    # fork keeps repeated pool spawns cheap in tests; semantics are
    # start-method-agnostic (tests/pipeline/test_mp_backend.py).
    return PipelineConfig(parallel=ParallelConfig(start_method="fork", **kwargs))


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=17)
    wl.reads = wl.reads[:400]
    return wl


def snp_keys(snps):
    return [(s.pos, s.ref_name, s.alt_name) for s in snps]


class TestEngine:
    def test_run_matches_internal_pipeline(self, workload):
        config = PipelineConfig()
        internal = GnumapSnp(workload.reference, config).run(workload.reads)
        result = Engine(workload.reference, config).run(workload.reads)
        assert isinstance(result, CallResult)
        assert snp_keys(result.snps) == snp_keys(internal.snps)
        assert result.stats.n_reads == internal.stats.n_reads

    def test_staged_map_then_call_matches_run(self, workload):
        engine = Engine(workload.reference)
        one_shot = Engine(workload.reference).run(workload.reads)
        half = len(workload.reads) // 2
        stats = engine.map_reads(workload.reads[:half])
        assert stats.n_reads == half
        stats = engine.map_reads(workload.reads[half:])
        assert stats.n_reads == len(workload.reads)  # cumulative
        staged = engine.call()
        assert snp_keys(staged.snps) == snp_keys(one_shot.snps)
        assert np.array_equal(
            staged.accumulator.snapshot(), one_shot.accumulator.snapshot()
        )
        # the staged result's metrics are the merge of every verb's snapshot
        assert staged.metrics.span_count("map_reads") == 2
        assert staged.metrics.span_count("call") == 1
        assert staged.metrics.counter("pipeline.reads") == len(workload.reads)
        assert one_shot.metrics.span_count("map_reads") == 1

    def test_call_before_map_raises(self, workload):
        with pytest.raises(PipelineError):
            Engine(workload.reference).call()

    def test_reset_drops_evidence(self, workload):
        engine = Engine(workload.reference)
        engine.map_reads(workload.reads[:50])
        engine.reset()
        with pytest.raises(PipelineError):
            engine.call()
        assert engine.map_reads(workload.reads[:50]).n_reads == 50

    def test_workers_two_matches_serial(self, workload):
        config = PipelineConfig()
        serial = Engine(workload.reference, config).run(workload.reads)
        with Engine(workload.reference, config, workers=2) as engine:
            mp = engine.run(workload.reads)
        assert snp_keys(mp.snps) == snp_keys(serial.snps)

    def test_bad_workers_rejected(self, workload):
        with pytest.raises(PipelineError):
            Engine(workload.reference, workers=0)

    def test_staged_parallel_map_matches_staged_serial(self, workload):
        config = fork_config()
        serial = Engine(workload.reference, config)
        half = len(workload.reads) // 2
        with Engine(workload.reference, config, workers=2) as parallel:
            for batch in (workload.reads[:half], workload.reads[half:]):
                serial_stats = serial.map_reads(batch)
                stats = parallel.map_reads(batch)
            # Kernel calls are cut per chunk, so only the batch count differs.
            counts = [(s.n_reads, s.n_mapped, s.n_pairs) for s in (stats, serial_stats)]
            assert counts[0] == counts[1]
            assert stats.n_reads == len(workload.reads)
            assert snp_keys(parallel.call().snps) == snp_keys(serial.call().snps)

    def test_from_fasta(self, workload, tmp_path):
        path = tmp_path / "ref.fa"
        write_fasta(path, {workload.reference.name: workload.reference.codes})
        engine = Engine.from_fasta(str(path))
        assert len(engine.reference) == len(workload.reference)
        assert engine.reference.name == workload.reference.name

    def test_from_fasta_rejects_multi_record(self, workload, tmp_path):
        path = tmp_path / "two.fa"
        codes = workload.reference.codes[:100]
        write_fasta(path, {"a": codes, "b": codes})
        with pytest.raises(PipelineError):
            Engine.from_fasta(str(path))

    def test_write_tsv(self, workload, tmp_path):
        result = Engine(workload.reference).run(workload.reads)
        out = tmp_path / "snps.tsv"
        n = result.write_tsv(str(out))
        assert n == len(result.snps)
        assert out.read_text().startswith("pos\t")


class TestBandedEngine:
    @pytest.mark.parametrize("band_mode", ["adaptive"])
    def test_banded_matches_full_calls(self, workload, band_mode):
        full = Engine(workload.reference, PipelineConfig()).run(workload.reads)
        banded = Engine(
            workload.reference, PipelineConfig(band_mode=band_mode)
        ).run(workload.reads)
        assert snp_keys(banded.snps) == snp_keys(full.snps)
        # Banding at defaults cuts the DP cells filled at least 3x, the
        # adaptive mode's unbanded escape re-fills included.
        cells = banded.metrics.counters
        filled = cells["phmm.cells_banded"] + cells.get("phmm.cells_full", 0)
        assert full.metrics.counters["phmm.cells_full"] >= 3 * filled

    def test_banded_serial_matches_banded_mp(self, workload):
        config = PipelineConfig(band_mode="adaptive")
        serial = Engine(workload.reference, config).run(workload.reads)
        with Engine(workload.reference, config, workers=2) as engine:
            mp = engine.run(workload.reads)
        assert snp_keys(mp.snps) == snp_keys(serial.snps)
        assert np.array_equal(
            mp.accumulator.snapshot(), serial.accumulator.snapshot()
        )


class TestEngineLifecycle:
    def test_context_manager_releases_pool_engine_stays_usable(self, workload):
        reads = workload.reads[:120]
        with Engine(workload.reference, fork_config(), workers=2) as engine:
            first = engine.run(reads)
            assert engine._pool is not None and not engine._pool.closed
        # __exit__ released the fleet and segments...
        assert engine._pool is None
        # ...but the engine is not poisoned: the next call just rebuilds.
        with engine:
            again = engine.run(reads)
        assert snp_keys(again.snps) == snp_keys(first.snps)

    def test_pool_reused_across_calls(self, workload):
        reads = workload.reads[:120]
        with scope() as reg, Engine(
            workload.reference, fork_config(), workers=2
        ) as engine:
            engine.run(reads)
            pool = engine._pool
            engine.run(reads)
            engine.map_reads(reads)
            assert engine._pool is pool
        # Three rounds on one fleet: the cold start, then two warm reuses.
        assert reg.snapshot().counter("mp.pool_reuse") == 2

    def test_per_call_workers_kwarg_is_a_type_error(self, workload):
        # Worker count is engine state; the 1.x per-call kwarg is gone.
        with pytest.raises(TypeError):
            Engine(workload.reference).run(workload.reads, workers=2)

    def test_close_is_idempotent(self, workload):
        engine = Engine(workload.reference, workers=2)
        engine.close()
        engine.close()


class TestRemovedShims:
    def test_1x_shims_are_gone(self):
        # 2.0 removed the deprecated top-level aliases.
        assert not hasattr(repro, "GnumapSnp")
        assert not hasattr(repro, "run_multiprocessing")
        assert "GnumapSnp" not in repro.__all__

    def test_internal_constructor_stays_silent(self, workload):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            GnumapSnp(workload.reference, PipelineConfig())
            Engine(workload.reference)

    def test_facade_is_exported_top_level(self):
        assert repro.Engine is Engine
        assert repro.CallResult is CallResult
        assert "Engine" in repro.__all__
        assert "ParallelConfig" in repro.__all__
