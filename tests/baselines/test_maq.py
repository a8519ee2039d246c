"""Tests for the MAQ-like baseline."""

import numpy as np
import pytest

from repro.baselines.maq import MIN_DEPTH, MaqConfig, MaqLikeCaller
from repro.evaluation.metrics import compare_to_truth
from repro.experiments.workload import build_workload
from repro.genome.alphabet import reverse_complement
from repro.genome.fastq import Read
from repro.simulate.genome_sim import GenomeSpec, simulate_genome


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale="tiny", seed=88)


def perfect_read(ref, pos, length=62, name="r"):
    return Read(
        name=name,
        codes=ref.codes[pos : pos + length].copy(),
        quals=np.full(length, 40, dtype=np.uint8),
    )


class TestMapping:
    def test_perfect_read_placed_exactly(self, workload):
        mapper = MaqLikeCaller(workload.reference, seed=0)
        placed = mapper.map_read(perfect_read(workload.reference, 3000))
        assert placed is not None
        start, strand, score, mapq = placed
        assert start == 3000 and strand == 1 and score == 0
        assert mapq > 0

    def test_reverse_read_placed(self, workload):
        ref = workload.reference
        pos = 2000
        read = Read(
            "rc",
            reverse_complement(ref.codes[pos : pos + 62]),
            np.full(62, 40, dtype=np.uint8),
        )
        placed = MaqLikeCaller(ref, seed=0).map_read(read)
        assert placed is not None
        assert placed[0] == pos and placed[1] == -1

    def test_mismatches_raise_score(self, workload):
        ref = workload.reference
        read = perfect_read(ref, 1000)
        read.codes[5] = (read.codes[5] + 1) % 4
        placed = MaqLikeCaller(ref, seed=0).map_read(read)
        assert placed is not None
        assert placed[2] == 40  # the mismatched base's quality

    def test_high_mismatch_sum_filtered(self, workload):
        ref = workload.reference
        read = perfect_read(ref, 1000)
        for i in (3, 9):
            read.codes[i] = (read.codes[i] + 1) % 4  # 80 > MAX_MISMATCH_SUM
        mapper = MaqLikeCaller(ref, seed=0)
        assert mapper.map_read(read) is None

    def test_multiread_gets_zero_mapq_and_random_placement(self):
        # exact repeat: two equally good placements
        ref, repeats = simulate_genome(
            GenomeSpec(length=20_000, n_repeats=1, repeat_length=400,
                       repeat_divergence=0.0),
            seed=9,
        )
        rep = repeats[0]
        read = perfect_read(ref, rep.src_start + 100)
        placements = set()
        for seed in range(10):
            placed = MaqLikeCaller(ref, seed=seed).map_read(read)
            assert placed is not None
            assert placed[3] == 0  # ambiguous -> mapping quality 0
            placements.add(placed[0])
        # random assignment visits both copies across seeds
        assert len(placements) == 2

    def test_discarded_reads_counted(self, workload):
        mapper = MaqLikeCaller(workload.reference, seed=0)
        rng = np.random.default_rng(1)
        junk = Read("j", rng.integers(0, 4, 62).astype(np.uint8),
                    np.full(62, 40, dtype=np.uint8))
        assert not mapper.add_read(junk)
        assert mapper.n_discarded == 1


class TestCalling:
    def test_finds_planted_snps(self, workload):
        caller = MaqLikeCaller(workload.reference, seed=0)
        snps = caller.run(workload.reads)
        counts = compare_to_truth(snps, workload.catalog)
        assert counts.precision >= 0.8
        assert counts.recall >= 0.4

    def test_no_snps_on_clean_reads(self, workload):
        ref = workload.reference
        rng = np.random.default_rng(2)
        reads = [
            perfect_read(ref, int(rng.integers(0, len(ref) - 62)), name=f"c{i}")
            for i in range(400)
        ]
        snps = MaqLikeCaller(ref, seed=0).run(reads)
        assert snps == []

    def test_quality_cutoff_monotone(self, workload):
        strict = MaqLikeCaller(
            workload.reference, MaqConfig(snp_quality_cutoff=60), seed=0
        ).run(workload.reads)
        loose = MaqLikeCaller(
            workload.reference, MaqConfig(snp_quality_cutoff=10), seed=0
        ).run(workload.reads)
        assert len(strict) <= len(loose)
        assert {s.pos for s in strict} <= {s.pos for s in loose}

    def test_min_depth_respected(self, workload):
        caller = MaqLikeCaller(workload.reference, seed=0)
        for snp in caller.run(workload.reads):
            assert snp.depth >= MIN_DEPTH
