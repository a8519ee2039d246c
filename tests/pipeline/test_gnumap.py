"""Tests for the serial GNUMAP-SNP pipeline."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.evaluation.metrics import compare_to_truth
from repro.experiments.workload import build_workload
from repro.genome.fastq import Read
from repro.pipeline.config import PipelineConfig
from repro.observability import scope
from repro.observability.snapshot import MetricsSnapshot
from repro.pipeline.gnumap import GnumapSnp, MappingStats


def _mapped(pipe, reads):
    """``pipe.map_reads(reads)`` and the counts it added."""
    with scope() as reg:
        acc = pipe.map_reads(reads)
    return acc, MappingStats.of(reg.snapshot())


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale="tiny", seed=101)


@pytest.fixture(scope="module")
def pipeline(workload):
    return GnumapSnp(workload.reference, PipelineConfig())


@pytest.fixture(scope="module")
def result(pipeline, workload):
    return pipeline.run(workload.reads)


class TestEndToEnd:
    def test_most_reads_map(self, result, workload):
        assert result.stats.n_reads == workload.n_reads
        assert result.stats.n_mapped > 0.95 * workload.n_reads
        assert result.stats.n_pairs >= result.stats.n_mapped

    def test_finds_planted_snps_with_high_precision(self, result, workload):
        counts = compare_to_truth(result.snps, workload.catalog)
        assert counts.precision >= 0.9
        assert counts.recall >= 0.3  # tiny workload is low-coverage

    def test_deterministic(self, pipeline, workload, result):
        again = pipeline.run(workload.reads)
        assert {(s.pos, s.alt_name) for s in again.snps} == {
            (s.pos, s.alt_name) for s in result.snps
        }
        assert np.allclose(
            again.accumulator.snapshot(), result.accumulator.snapshot()
        )

    def test_timers_populated(self, result):
        totals = result.metrics.leaf_totals()
        for stage in ("seed", "align", "accumulate", "call"):
            seconds, count = totals[stage]
            assert seconds > 0 and count > 0
        assert result.reads_per_second > 0

    def test_timers_parameter_is_gone(self, pipeline, workload):
        with pytest.raises(TypeError):
            pipeline.map_reads(workload.reads[:1], timers=object())

    def test_alt_alleles_match_truth(self, result, workload):
        counts = compare_to_truth(result.snps, workload.catalog, allele_aware=True)
        loose = compare_to_truth(result.snps, workload.catalog)
        assert counts.tp >= 0.9 * loose.tp

    def test_evidence_depth_near_coverage(self, result, workload):
        depth = result.accumulator.total_depth()
        interior = depth[100:-100]
        assert abs(np.median(interior) - workload.coverage) < workload.coverage * 0.4


class TestStages:
    def test_accumulator_reuse_is_online(self, pipeline, workload):
        acc = pipeline.accumulator_or_new(None)
        half = workload.n_reads // 2
        pipeline.map_reads(workload.reads[:half], accumulator=acc)
        first_total = acc.total_depth().sum()
        pipeline.map_reads(workload.reads[half:], accumulator=acc)
        assert acc.total_depth().sum() > first_total

    def test_split_mapping_equals_single_run(self, pipeline, workload, result):
        acc = pipeline.accumulator_or_new(None)
        third = workload.n_reads // 3
        pipeline.map_reads(workload.reads[:third], accumulator=acc)
        pipeline.map_reads(workload.reads[third:], accumulator=acc)
        assert np.allclose(
            acc.snapshot(), result.accumulator.snapshot(), atol=1e-3
        )

    def test_wrong_accumulator_length_rejected(self, pipeline, workload):
        from repro.memory.base import make_accumulator

        with pytest.raises(PipelineError):
            pipeline.map_reads(
                workload.reads[:1], accumulator=make_accumulator("NORM", 10)
            )

    def test_no_reads(self, pipeline):
        acc, stats = _mapped(pipeline, [])
        assert stats == MappingStats.of(MetricsSnapshot.empty())
        assert acc.total_depth().sum() == 0
        assert pipeline.call_snps(acc) == []

    def test_alignment_error_propagates_unchanged(self, pipeline, workload, monkeypatch):
        """The mapping loop never swallows what a batch's alignment raises:
        the first failing batch ends ``map_batches`` and ``run`` with the
        same exception object."""
        sentinel = RuntimeError("alignment failed")
        calls = []

        def fail(self, reads, seeded):
            calls.append(len(seeded))
            raise sentinel

        monkeypatch.setattr(GnumapSnp, "_align", fail)
        # Several blocks of reads: the first batch is cut inside the loop.
        assert len(workload.reads) > 2 * PipelineConfig().batch_size
        for run in (
            lambda: list(pipeline.map_batches(workload.reads)),
            lambda: pipeline.run(workload.reads),
        ):
            calls.clear()
            with pytest.raises(RuntimeError) as raised:
                run()
            assert raised.value is sentinel
            assert len(calls) == 1

    def test_unmappable_read_counted(self, pipeline):
        rng = np.random.default_rng(0)
        junk = Read(
            "junk",
            rng.integers(0, 4, 62).astype(np.uint8),
            np.full(62, 40, dtype=np.uint8),
        )
        _acc, stats = _mapped(pipeline, [junk])
        assert stats.n_unmapped >= 0
        assert stats.n_reads == 1


class TestConfigurations:
    def test_quality_blind_runs(self, workload):
        pipe = GnumapSnp(workload.reference, PipelineConfig(quality_aware=False))
        result = pipe.run(workload.reads[:200])
        assert result.stats.n_mapped > 0

    def test_discretised_accumulators_close_to_dense(self, workload):
        reads = workload.reads
        dense = GnumapSnp(workload.reference, PipelineConfig()).run(reads)
        byte = GnumapSnp(
            workload.reference, PipelineConfig(accumulator="CHARDISC")
        ).run(reads)
        d = {(s.pos, s.alt_name) for s in dense.snps}
        b = {(s.pos, s.alt_name) for s in byte.snps}
        # CHARDISC loses at most a small fraction of calls, adds none
        assert b <= d or len(b - d) <= 1
        assert len(d - b) <= max(2, len(d) // 2)

    def test_small_batch_size_same_result(self, workload):
        reads = workload.reads[:300]
        big = GnumapSnp(workload.reference, PipelineConfig(batch_size=4096)).run(reads)
        small = GnumapSnp(workload.reference, PipelineConfig(batch_size=16)).run(reads)
        assert np.allclose(
            big.accumulator.snapshot(), small.accumulator.snapshot(), atol=1e-6
        )

    def test_mixed_read_lengths_supported(self, workload):
        ref = workload.reference
        rng = np.random.default_rng(1)
        reads = []
        for i, L in enumerate([40, 40, 60, 60, 40]):
            pos = int(rng.integers(0, len(ref) - L))
            reads.append(
                Read(
                    f"m{i}",
                    ref.codes[pos : pos + L].copy(),
                    np.full(L, 38, dtype=np.uint8),
                )
            )
        pipe = GnumapSnp(ref, PipelineConfig())
        _acc, stats = _mapped(pipe, reads)
        assert stats.n_mapped == 5


class TestEdgeCandidates:
    """Regression: candidates whose alignment windows overhang the genome
    (negative ``start`` on the left edge, ``start`` near ``glen`` on the
    right) must slice cleanly — N-padded off-genome columns, band centred
    on the true seed diagonal — in every band mode."""

    @pytest.fixture(scope="class")
    def edge_setup(self, workload):
        ref = workload.reference
        junk = np.asarray([0, 1, 2, 3] * 5, dtype=np.uint8)
        left = Read(
            "left_overhang",
            np.concatenate([junk, np.asarray(ref.codes[:42])]),
            np.full(62, 40, dtype=np.uint8),
        )
        right = Read(
            "right_overhang",
            np.concatenate([np.asarray(ref.codes[-42:]), junk]),
            np.full(62, 40, dtype=np.uint8),
        )
        return ref, left, right

    @pytest.mark.parametrize("band_mode", ["off", "adaptive"])
    def test_overhanging_reads_map_in_all_band_modes(self, edge_setup, band_mode):
        ref, left, right = edge_setup
        pipe = GnumapSnp(ref, PipelineConfig(band_mode=band_mode))
        acc, stats = _mapped(pipe, [left, right])
        assert stats.n_mapped == 2
        ev = acc.snapshot()
        glen = len(ref)
        # Evidence lands where the overlapping halves align, nowhere off-end.
        assert ev[:42].sum() > 0, "left-overhang evidence missing"
        assert ev[glen - 42 :].sum() > 0, "right-overhang evidence missing"

    @pytest.mark.parametrize("band_mode", ["off", "adaptive"])
    def test_overhang_with_filtration(self, edge_setup, band_mode):
        ref, left, right = edge_setup
        from repro.index.seeding import SeederConfig

        pipe = GnumapSnp(
            ref,
            PipelineConfig(
                band_mode=band_mode,
                seeder=SeederConfig(qgram_filter=True),
            ),
        )
        _acc, stats = _mapped(pipe, [left, right])
        assert stats.n_mapped == 2

    def test_clamped_start_keeps_band_centred(self, workload):
        # A hand-built candidate with start clipped away from its diagonal:
        # the batch center must follow the diagonal, not the clamp.
        from repro.index.seeding import CandidateRegion

        cand = CandidateRegion(start=0, strand=1, support=3, diagonal=-7)
        cfg = PipelineConfig()
        assert cand.band_diagonal == -7
        assert cfg.pad + (cand.band_diagonal - cand.start) == cfg.pad - 7


class TestSeedLenThreading:
    def test_pipeline_builds_long_table_from_config(self, workload):
        from repro.index.seeding import SeederConfig

        pipe = GnumapSnp(
            workload.reference,
            PipelineConfig(seeder=SeederConfig(seed_len=20)),
        )
        assert pipe.index.seed_width == 20
        assert pipe.seeder.index is pipe.index

    def test_supplied_index_seed_len_mismatch_rejected(self, workload):
        from repro.index.hashindex import GenomeIndex
        from repro.index.seeding import SeederConfig

        plain = GenomeIndex(workload.reference, k=10)
        for wants_20 in (
            PipelineConfig(seeder=SeederConfig(seed_len=20)),
            PipelineConfig(k=20),
        ):
            with pytest.raises(PipelineError, match="seed width"):
                GnumapSnp(workload.reference, wants_20, index=plain)
        # One comparison of widths: either spelling of 20 takes a 20-wide index.
        wide = GenomeIndex(workload.reference, k=20)
        assert GnumapSnp(
            workload.reference,
            PipelineConfig(seeder=SeederConfig(seed_len=20)),
            index=wide,
        ).index is wide

    def test_filtered_config_calls_match_default(self, workload, result):
        from repro.index.seeding import SeederConfig

        filt = GnumapSnp(
            workload.reference,
            PipelineConfig(seeder=SeederConfig(seed_len=20, qgram_filter=True)),
        ).run(workload.reads)
        assert {(s.pos, s.alt_name) for s in filt.snps} == {
            (s.pos, s.alt_name) for s in result.snps
        }


class TestWorkspace:
    """Each pipeline owns the one workspace its kernel calls are cut from."""

    @pytest.mark.parametrize("band_mode", ["off", "adaptive"])
    def test_two_pipelines_in_two_threads_give_serial_bytes(self, workload, band_mode):
        import threading

        config = PipelineConfig(band_mode=band_mode)
        want = GnumapSnp(workload.reference, config).map_reads(workload.reads).to_buffers()
        pipes = [GnumapSnp(workload.reference, config) for _ in range(2)]
        start, got = threading.Barrier(2), [None, None]

        def run(k):
            start.wait()
            got[k] = pipes[k].map_reads(workload.reads).to_buffers()

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for buffers in got:
            assert buffers.keys() == want.keys()
            for key in want:
                assert buffers[key].tobytes() == want[key].tobytes(), key

    def test_a_second_map_reads_allocates_no_new_dp_buffer(self, workload):
        pipe = GnumapSnp(workload.reference, PipelineConfig())
        with scope() as reg:
            pipe.map_reads(workload.reads)
        buffers = pipe.workspace.buffers
        held = [buffer.ctypes.data for buffer in buffers.values()]
        assert reg.snapshot().gauges["phmm.workspace_bytes"] == sum(
            buffer.nbytes for buffer in buffers.values()
        )
        pipe.map_reads(workload.reads)
        assert [buffer.ctypes.data for buffer in buffers.values()] == held
