"""Tests for the read simulator (MetaSim substitute)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.genome.alphabet import reverse_complement
from repro.genome.reference import Reference
from repro.simulate.error_model import IlluminaErrorModel
from repro.simulate.genome_sim import GenomeSpec, simulate_genome
from repro.simulate.read_sim import ReadSimSpec, ReadSimulator


def make_ref(length=5000, seed=0, **kw):
    ref, _ = simulate_genome(GenomeSpec(length=length, n_repeats=0, **kw), seed=seed)
    return ref


class TestReadSimSpec:
    def test_exactly_one_of_coverage_nreads(self):
        with pytest.raises(ConfigError):
            ReadSimSpec(coverage=10, n_reads=5)
        with pytest.raises(ConfigError):
            ReadSimSpec(coverage=None, n_reads=None)

    def test_resolve_n_reads_from_coverage(self):
        spec = ReadSimSpec(read_length=50, coverage=10.0)
        assert spec.resolve_n_reads(1000) == 200

    def test_resolve_explicit(self):
        spec = ReadSimSpec(coverage=None, n_reads=7)
        assert spec.resolve_n_reads(99999) == 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReadSimSpec(read_length=0)
        with pytest.raises(ConfigError):
            ReadSimSpec(coverage=-1, n_reads=None)


class TestReadSimulator:
    def test_deterministic(self):
        ref = make_ref()
        spec = ReadSimSpec(read_length=40, coverage=None, n_reads=50)
        r1 = ReadSimulator([ref], spec, seed=1).simulate()
        r2 = ReadSimulator([ref], spec, seed=1).simulate()
        assert len(r1) == 50
        for a, b in zip(r1, r2):
            assert (a.codes == b.codes).all()
            assert a.true_pos == b.true_pos

    def test_read_count_from_coverage(self):
        ref = make_ref(length=1000)
        spec = ReadSimSpec(read_length=50, coverage=5.0)
        sim = ReadSimulator([ref], spec, seed=2)
        assert sim.n_reads() == 100

    def test_forward_reads_match_template_mostly(self):
        ref = make_ref()
        spec = ReadSimSpec(
            read_length=60, coverage=None, n_reads=100, both_strands=False,
            error_model=IlluminaErrorModel(start_error=0.0, end_error=0.0,
                                           quality_noise_sd=0),
        )
        for read in ReadSimulator([ref], spec, seed=3).simulate():
            template = ref.codes[read.true_pos : read.true_pos + 60]
            assert read.true_strand == 1
            assert (read.codes == template).all()

    def test_reverse_reads_are_revcomp(self):
        ref = make_ref()
        spec = ReadSimSpec(
            read_length=30, coverage=None, n_reads=300,
            error_model=IlluminaErrorModel(start_error=0.0, end_error=0.0,
                                           quality_noise_sd=0),
        )
        reads = ReadSimulator([ref], spec, seed=4).simulate()
        rev = [r for r in reads if r.true_strand == -1]
        assert 60 < len(rev) < 240  # roughly half
        for read in rev[:20]:
            template = ref.codes[read.true_pos : read.true_pos + 30]
            assert (read.codes == reverse_complement(template)).all()

    def test_positions_cover_genome(self):
        ref = make_ref(length=2000)
        spec = ReadSimSpec(read_length=40, coverage=None, n_reads=400)
        reads = ReadSimulator([ref], spec, seed=5).simulate()
        positions = np.array([r.true_pos for r in reads])
        assert positions.min() >= 0
        assert positions.max() <= 2000 - 40
        # spread over the genome, not clumped
        assert np.std(positions) > 300

    def test_n_templates_skipped(self):
        ref, _ = simulate_genome(
            GenomeSpec(length=3000, n_repeats=0, n_run_length=500), seed=6
        )
        spec = ReadSimSpec(read_length=50, coverage=None, n_reads=100)
        reads = ReadSimulator([ref], spec, seed=7).simulate()
        assert len(reads) == 100
        for read in reads:
            assert (read.codes <= 3).all()

    def test_mostly_n_genome_stalls(self):
        codes = np.full(200, 4, dtype=np.uint8)
        codes[:10] = 0
        ref = Reference(codes)
        spec = ReadSimSpec(read_length=50, coverage=None, n_reads=10)
        with pytest.raises(ConfigError, match="stalled"):
            ReadSimulator([ref], spec, seed=8).simulate()

    def test_diploid_sampling_uses_both_haplotypes(self):
        ref = make_ref()
        alt_codes = ref.codes.copy()
        alt_codes[:] = (alt_codes + 1) % 4
        alt = Reference(alt_codes)
        spec = ReadSimSpec(
            read_length=40, coverage=None, n_reads=200, both_strands=False,
            error_model=IlluminaErrorModel(start_error=0, end_error=0,
                                           quality_noise_sd=0),
        )
        reads = ReadSimulator([ref, alt], spec, seed=9).simulate()
        from_ref = sum(
            1
            for r in reads
            if (r.codes == ref.codes[r.true_pos : r.true_pos + 40]).all()
        )
        assert 40 < from_ref < 160

    def test_haplotype_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ReadSimulator(
                [make_ref(length=1000), make_ref(length=999)],
                ReadSimSpec(read_length=30, coverage=1.0),
            )

    def test_genome_shorter_than_read_rejected(self):
        with pytest.raises(ConfigError):
            ReadSimulator([make_ref(length=30)], ReadSimSpec(read_length=62, coverage=1.0))


class TestSystematicErrors:
    def make_sim(self, miscall=0.6, n_sites=10, seed=11, exclude=None):
        ref = make_ref(length=4000, seed=10)
        spec = ReadSimSpec(
            read_length=50,
            coverage=None,
            n_reads=600,
            n_systematic_sites=n_sites,
            systematic_miscall_prob=miscall,
            error_model=IlluminaErrorModel(start_error=0, end_error=0,
                                           quality_noise_sd=0),
        )
        return ref, ReadSimulator([ref], spec, seed=seed,
                                  systematic_exclude=exclude)

    def test_sites_chosen_deterministically(self):
        _, sim1 = self.make_sim()
        _, sim2 = self.make_sim()
        assert (sim1.systematic_positions == sim2.systematic_positions).all()
        assert sim1.systematic_positions.size == 10

    def test_miscalls_coherent_and_low_quality(self):
        from repro.genome.alphabet import _COMPLEMENT

        ref, sim = self.make_sim(miscall=0.7)
        reads = sim.simulate()
        total = 0
        n_wrong = 0
        for site in sim.systematic_positions:
            site = int(site)
            wrong_counts: dict[int, int] = {}
            for read in reads:
                if read.true_pos <= site < read.true_pos + 50:
                    if read.true_strand == 1:
                        off = site - read.true_pos
                        base = int(read.codes[off])
                    else:
                        off = (read.true_pos + 50 - 1) - site
                        base = int(_COMPLEMENT[read.codes[off]])
                    total += 1
                    if base != int(ref.codes[site]):
                        wrong_counts[base] = wrong_counts.get(base, 0) + 1
                        assert read.quals[off] == 5  # flagged low quality
            # miscalls at one site land on a single coherent wrong base
            assert len(wrong_counts) <= 1
            n_wrong += sum(wrong_counts.values())
        assert total >= 30
        assert 0.4 * total <= n_wrong <= 0.95 * total

    def test_exclusion_respected(self):
        banned = list(range(0, 4000, 2))
        _, sim = self.make_sim(exclude=banned)
        assert not (set(sim.systematic_positions.tolist()) & set(banned))

    def test_zero_sites_no_overlay(self):
        ref, sim = self.make_sim(n_sites=0)
        assert sim.systematic_positions.size == 0
        reads = sim.simulate()
        for read in reads[:50]:
            template = ref.codes[read.true_pos : read.true_pos + 50]
            if read.true_strand == 1:
                assert (read.codes == template).all()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReadSimSpec(read_length=50, coverage=1.0, n_systematic_sites=-1)
        with pytest.raises(ConfigError):
            ReadSimSpec(read_length=50, coverage=1.0, systematic_miscall_prob=1.5)
        with pytest.raises(ConfigError):
            ReadSimSpec(read_length=50, coverage=1.0, systematic_quality=50)
