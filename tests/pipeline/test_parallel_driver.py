"""Tests for the two MPI-mode programs against the serial pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.workload import build_workload
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.observability import scope
from repro.parallel.cluster import Cluster
from repro.parallel.costmodel import LogGPModel
from repro.pipeline.calibration import ComputeCalibration
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp, MappingStats
from repro.pipeline.parallel_driver import READ_BATCH, run_memory_spread, run_read_spread


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale="tiny", seed=77)


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


@pytest.fixture(scope="module")
def serial_snps(workload, config):
    result = GnumapSnp(workload.reference, config).run(workload.reads)
    return {(s.pos, s.alt_name) for s in result.snps}


class TestReadSpread:
    @pytest.mark.parametrize("n_ranks", [1, 2, 5])
    def test_matches_serial(self, workload, config, serial_snps, n_ranks):
        res = Cluster(n_ranks).run(
            run_read_spread, workload.reference, workload.reads, config
        )
        assert {(s.pos, s.alt_name) for s in res.results[0]} == serial_snps
        # non-root ranks return no calls
        assert res.results[1:] == [None] * (n_ranks - 1)

    def test_virtual_speedup_with_calibration(self, workload, config):
        calib = ComputeCalibration.measure(
            workload.reference, workload.reads[:150], config
        )
        cost = LogGPModel()
        t1 = Cluster(1, cost).run(
            run_read_spread, workload.reference, workload.reads, config, calib
        ).makespan
        t4 = Cluster(4, cost).run(
            run_read_spread, workload.reference, workload.reads, config, calib
        ).makespan
        speedup = t1 / t4
        assert 2.0 < speedup <= 4.5


class TestMemorySpread:
    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_matches_serial(self, workload, config, serial_snps, n_ranks):
        res = Cluster(n_ranks).run(
            run_memory_spread, workload.reference, workload.reads, config
        )
        assert {(s.pos, s.alt_name) for s in res.results[0]} == serial_snps

    def test_snps_sorted_by_position(self, workload, config):
        res = Cluster(3).run(
            run_memory_spread, workload.reference, workload.reads, config
        )
        positions = [s.pos for s in res.results[0]]
        assert positions == sorted(positions)

    def test_scales_worse_than_read_spread(self, workload, config):
        calib = ComputeCalibration.measure(
            workload.reference, workload.reads[:150], config
        )
        cost = LogGPModel()
        p = 4
        rs = Cluster(p, cost).run(
            run_read_spread, workload.reference, workload.reads, config, calib
        ).makespan
        ms = Cluster(p, cost).run(
            run_memory_spread, workload.reference, workload.reads, config, calib
        ).makespan
        assert ms > rs  # Fig 4's conclusion

    def test_single_rank_degenerates_to_serial(self, workload, config, serial_snps):
        res = Cluster(1).run(
            run_memory_spread, workload.reference, workload.reads, config
        )
        got = {(s.pos, s.alt_name) for s in res.results[0]}
        assert got == serial_snps

    def test_viterbi_mode_as_serial(self, workload, assert_one_rank_spread_is_serial):
        """One-hot-best is decided once a read's scores from every rank
        meet in the batch's allreduce: one rank deposits serial's bytes and
        two ranks make serial's calls."""
        config = PipelineConfig(posterior_mode="viterbi")
        reads = workload.reads[:300]
        assert_one_rank_spread_is_serial(workload.reference, reads, config)
        want = GnumapSnp(workload.reference, config).run(reads).snps
        res = Cluster(2).run(run_memory_spread, workload.reference, reads, config)
        assert want
        assert {(s.pos, s.alt_name) for s in res.results[0]} == {
            (s.pos, s.alt_name) for s in want
        }

    def test_mixed_length_reads(self, workload, config):
        """Reads trimmed to 50-62 bp, a length per run of 40 reads, so a
        read batch holds several: kernel calls are cut by read length, as
        serial cuts them."""
        reads = [
            replace(r, codes=r.codes[:n], quals=r.quals[:n])
            for i, r in enumerate(workload.reads)
            for n in [50 + i // 40 % 13]
        ]
        want = GnumapSnp(workload.reference, config).run(reads).snps
        res = Cluster(2).run(run_memory_spread, workload.reference, reads, config)
        assert want
        assert {(s.pos, s.alt_name) for s in res.results[0]} == {
            (s.pos, s.alt_name) for s in want
        }


class TestGroupCount:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_default_is_one_group_per_rank(self, workload, config, n_ranks):
        calib = ComputeCalibration(2e-4, 8e-4, 1.3, 2e-6, 3e-6)
        runs, counts = [], []
        for n_groups in (None, n_ranks):
            with scope() as reg:
                runs.append(
                    Cluster(n_ranks, LogGPModel()).run(
                        run_memory_spread, workload.reference, workload.reads[:600],
                        config, calib, n_groups,
                    )
                )
            counts.append(MappingStats.of(reg.snapshot()))
        assert runs[0].results[0] == runs[1].results[0]
        assert counts[0] == counts[1]
        assert runs[0].makespan == runs[1].makespan


class TestHybrid:
    @pytest.mark.parametrize("n_ranks,n_groups", [(4, 2), (6, 3), (4, 1), (2, 2)])
    def test_matches_serial(self, workload, config, serial_snps, n_ranks, n_groups):
        res = Cluster(n_ranks).run(
            run_memory_spread, workload.reference, workload.reads, config, None,
            n_groups,
        )
        got = {(s.pos, s.alt_name) for s in res.results[0]}
        assert got == serial_snps

    def test_indivisible_world_rejected(self, workload, config):
        from repro.errors import CommError

        with pytest.raises(CommError):
            Cluster(5, timeout=10.0).run(
                run_memory_spread, workload.reference, workload.reads, config,
                None, 2,
            )

    def test_hybrid_seeds_less_than_memory_spread(self, workload, config):
        """The hybrid mode's point: per-rank seeding work drops by the group
        size, so its makespan beats pure memory-spread at equal rank count.
        Checked on virtual seconds charged from hand-written calibrations,
        which are deterministic where a measured one is not."""

        def run(calib, cost, n_groups):
            return Cluster(4, cost).run(
                run_memory_spread, workload.reference, workload.reads, config,
                calib, n_groups,
            )

        # Only seeding costs anything: a rank's clock is its seed charge.
        seed_only = ComputeCalibration(3e-5, 0.0, 1.4, 0.0, 0.0)
        free_net = LogGPModel(latency=0.0, byte_time=0.0)
        # every read batch splits evenly over a group of 1, 2 or 4 ranks
        assert len(workload.reads) % READ_BATCH % 4 == 0
        all_reads = len(workload.reads) * seed_only.seconds_per_seed
        for n_groups, group_size in ((None, 1), (2, 2), (1, 4)):
            charged = run(seed_only, free_net, n_groups).virtual_times
            assert charged == pytest.approx([all_reads / group_size] * 4, rel=1e-9)

        calib = ComputeCalibration(3e-5, 6e-4, 1.4, 1.5e-7, 2e-7)
        cost = LogGPModel()
        ms = run(calib, cost, None).makespan
        assert run(calib, cost, 2).makespan < ms
        assert run(calib, cost, 4).makespan == ms  # P == G is memory-spread


@pytest.fixture(scope="module")
def repeat_case():
    """40 copies, 1% diverged, of a 400 bp repeat between 600 bp unique
    spacers, and 600 exact 62 bp reads of a donor carrying six SNPs: 450
    reads anywhere and 25 over each SNP.  A read in the repeat has more
    than MAX_CANDIDATES candidates genome-wide and in each half or quarter
    of the genome, while no 10-mer is frequent enough to be masked."""
    rng = np.random.default_rng(0)
    unit = rng.integers(0, 4, 400).astype(np.uint8)
    parts = []
    for _ in range(40):
        copy = unit.copy()
        flip = rng.random(copy.size) < 0.01
        copy[flip] = (copy[flip] + rng.integers(1, 4, int(flip.sum()))) % 4
        parts += [rng.integers(0, 4, 600).astype(np.uint8), copy]
    codes = np.concatenate([*parts, rng.integers(0, 4, 600).astype(np.uint8)])
    donor = codes.copy()
    snps = rng.choice(codes.size, 6, replace=False)
    donor[snps] = (donor[snps] + 1) % 4
    starts = np.concatenate((
        rng.integers(0, codes.size - 62, 450),
        (snps[:, None] - rng.integers(0, 62, (6, 25))).ravel(),
    ))
    quals = np.full(62, 38, dtype=np.uint8)
    reads = [Read(f"r{i}", donor[a : a + 62], quals) for i, a in enumerate(starts.tolist())]
    return Reference(codes, name="repeats"), reads


def _calls_and_counts(run):
    """The call set and ``pipeline.pairs`` / ``reads_mapped`` of ``run()``."""
    with scope() as reg:
        snps = run()
    snap = reg.snapshot()
    assert snap.gauges["index.masked_kmers"] == 0  # the cut is pinned, not the mask
    counts = [snap.counter(f"pipeline.{name}") for name in ("pairs", "reads_mapped")]
    return {(s.pos, s.alt_name) for s in snps}, counts, snap


class TestRepeatDense:
    @pytest.fixture(scope="class")
    def serial(self, repeat_case):
        reference, reads = repeat_case
        calls, counts, snap = _calls_and_counts(
            lambda: GnumapSnp(reference, PipelineConfig()).run(reads).snps
        )
        assert calls and snap.counter("seed.candidates_dropped") > 0
        return calls, counts

    @pytest.mark.parametrize("n_ranks,n_groups", [(2, None), (4, None), (4, 2)])
    def test_memory_spread_keeps_serials_candidates(
        self, repeat_case, serial, n_ranks, n_groups
    ):
        """Every rank cuts the exchanged candidates with serial's rule, so
        however the genome is split a read aligns serial's candidates."""
        reference, reads = repeat_case
        calls, counts, _ = _calls_and_counts(
            lambda: Cluster(n_ranks).run(
                run_memory_spread, reference, reads, PipelineConfig(), None, n_groups
            ).results[0]
        )
        assert (calls, counts) == serial


class TestEvidenceEquivalence:
    def test_read_spread_accumulator_bitwise_close(self, workload, config):
        serial = GnumapSnp(workload.reference, config)
        serial_acc = serial.map_reads(workload.reads)

        def program(comm):
            from repro.parallel.partition import partition_reads_contiguous
            from repro.parallel.reduction import reduce_accumulator

            pipe = GnumapSnp(workload.reference, config)
            sl = partition_reads_contiguous(len(workload.reads), comm.size)[comm.rank]
            acc = pipe.map_reads(workload.reads[sl.start : sl.stop])
            return reduce_accumulator(comm, acc)

        res = Cluster(3).run(program)
        merged = res.results[0]
        assert np.allclose(merged.snapshot(), serial_acc.snapshot(), atol=1e-3)
