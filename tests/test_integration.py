"""Cross-module integration scenarios and failure injection.

These tests exercise behaviours that no single module owns: end-to-end
recovery of planted variants under specific conditions (repeats, diploid
genomes, SNP-free genomes), and the pipeline's handling of malformed or
adversarial inputs.
"""

import io

import numpy as np
import pytest

from repro import PipelineConfig, build_workload
from repro.observability import scope
from repro.pipeline.gnumap import GnumapSnp, MappingStats
from repro.calling.caller import CallerConfig
from repro.errors import FastqError
from repro.evaluation.metrics import compare_to_truth
from repro.genome.fastq import Read, read_fastq
from repro.genome.variants import Variant, VariantCatalog, apply_variants
from repro.simulate.error_model import IlluminaErrorModel
from repro.simulate.genome_sim import GenomeSpec, simulate_genome
from repro.simulate.read_sim import ReadSimSpec, ReadSimulator


class TestSnpFreeGenome:
    def test_no_calls_on_identical_individual(self):
        """Reads from the reference itself must yield zero SNPs."""
        ref, _ = simulate_genome(GenomeSpec(length=8000, n_repeats=1,
                                            repeat_length=200), seed=11)
        reads = ReadSimulator(
            [ref], ReadSimSpec(read_length=62, coverage=10.0), seed=12
        ).simulate()
        result = GnumapSnp(ref, PipelineConfig()).run(reads)
        assert result.snps == []


class TestHighCoverageRecovery:
    def test_all_snps_found_at_depth(self):
        """At 25x every planted SNP clears the LRT threshold."""
        ref, _ = simulate_genome(GenomeSpec(length=6000, n_repeats=0), seed=13)
        catalog = VariantCatalog(
            [
                Variant(int(p), int(ref.codes[p]), (int(ref.codes[p]) + 1) % 4)
                for p in (500, 2000, 3500, 5000)
            ]
        )
        (hap,) = apply_variants(ref, catalog)
        reads = ReadSimulator(
            [hap], ReadSimSpec(read_length=62, coverage=25.0), seed=14
        ).simulate()
        result = GnumapSnp(ref, PipelineConfig()).run(reads)
        counts = compare_to_truth(result.snps, catalog, allele_aware=True)
        assert counts.tp == 4
        assert counts.fp == 0


class TestRepeatRegionSnp:
    def test_snp_inside_exact_repeat_detected_where_maq_blind(self):
        """A SNP inside a two-copy *exact* repeat is fundamentally ambiguous
        (the multiread weighting splits its evidence 50/50 over both
        copies), but the probabilistic mapping must *preserve* the variant
        signal: the diploid LRT flags both copies as carrying a het-like
        A/alt mixture.  The MAQ-like baseline is completely blind here — its
        reads map with quality 0 and are filtered — which is exactly the
        paper's "especially true in repeat regions" claim."""
        from repro.baselines.maq import MaqLikeCaller
        from repro.calling.caller import CallerConfig

        ref, repeats = simulate_genome(
            GenomeSpec(length=30_000, n_repeats=1, repeat_length=500,
                       repeat_divergence=0.0),
            seed=15,
        )
        rep = repeats[0]
        pos = rep.src_start + 250
        copy_pos = rep.copy_start + 250
        alt = (int(ref.codes[pos]) + 1) % 4
        catalog = VariantCatalog([Variant(pos, int(ref.codes[pos]), alt)])
        (hap,) = apply_variants(ref, catalog)
        reads = ReadSimulator(
            [hap], ReadSimSpec(read_length=62, coverage=20.0), seed=16
        ).simulate()

        config = PipelineConfig(caller=CallerConfig(ploidy=2))
        result = GnumapSnp(ref, config).run(reads)
        found = {s.pos for s in result.snps}
        assert pos in found
        # the exact copy shows the same (genuinely indistinguishable) signal
        assert found <= {pos, copy_pos}
        truth_alt = {s.pos for s in result.snps if alt in s.call.genotype}
        assert pos in truth_alt

        # the single-best-hit baseline discards the mapq-0 repeat reads and
        # sees nothing at all
        maq_calls = MaqLikeCaller(ref, seed=0).run(reads)
        assert all(c.pos not in (pos, copy_pos) for c in maq_calls)


class TestDiploidEndToEnd:
    def test_het_sites_called_heterozygous(self):
        wl = build_workload(scale="tiny", seed=17, ploidy=2, het_fraction=1.0)
        config = PipelineConfig(caller=CallerConfig(ploidy=2))
        result = GnumapSnp(wl.reference, config).run(wl.reads)
        called_het = {s.pos for s in result.snps if s.call.heterozygous}
        truth_het = {v.pos for v in wl.catalog}
        # most recovered sites are genotyped heterozygous
        recovered = {s.pos for s in result.snps} & truth_het
        if recovered:
            assert len(called_het & recovered) >= 0.6 * len(recovered)


class TestQualityAwareness:
    def test_low_quality_errors_downweighted(self):
        """A read position with terrible quality must contribute little
        evidence, keeping an error there from looking like a SNP."""
        ref, _ = simulate_genome(GenomeSpec(length=4000, n_repeats=0), seed=18)
        pos = 2000
        # 30 identical reads, all with a wrong base at offset 31 marked Q2
        reads = []
        for i in range(30):
            start = pos - 31
            codes = ref.codes[start : start + 62].copy()
            codes[31] = (codes[31] + 1) % 4
            quals = np.full(62, 40, dtype=np.uint8)
            quals[31] = 2
            reads.append(Read(f"q{i}", codes, quals))
        result = GnumapSnp(ref, PipelineConfig()).run(reads)
        assert all(s.pos != pos for s in result.snps)

    def test_same_reads_high_quality_do_call(self):
        """Identical scenario with confident qualities *should* call a SNP —
        the contrast that proves the PWM matters."""
        ref, _ = simulate_genome(GenomeSpec(length=4000, n_repeats=0), seed=18)
        pos = 2000
        reads = []
        for i in range(30):
            start = pos - 31
            codes = ref.codes[start : start + 62].copy()
            codes[31] = (codes[31] + 1) % 4
            reads.append(Read(f"q{i}", codes, np.full(62, 40, dtype=np.uint8)))
        result = GnumapSnp(ref, PipelineConfig()).run(reads)
        assert any(s.pos == pos for s in result.snps)


class TestFailureInjection:
    def test_truncated_fastq_rejected(self):
        stream = io.StringIO("@r1\nACGT\n+\nIIII\n@r2\nACGT\n")
        with pytest.raises(FastqError):
            read_fastq(stream)

    def test_reads_longer_than_genome_window_handled(self):
        ref, _ = simulate_genome(GenomeSpec(length=200, n_repeats=0), seed=19)
        read = Read(
            "long", ref.codes[10:150].copy(), np.full(140, 35, dtype=np.uint8)
        )
        pipe = GnumapSnp(ref, PipelineConfig())
        with scope() as reg:
            pipe.map_reads([read])
        assert reg.snapshot().counter("pipeline.reads") == 1  # mapped or not, never crashes

    def test_read_at_genome_edges(self):
        ref, _ = simulate_genome(GenomeSpec(length=3000, n_repeats=0), seed=20)
        reads = [
            Read("left", ref.codes[:62].copy(), np.full(62, 38, dtype=np.uint8)),
            Read("right", ref.codes[-62:].copy(), np.full(62, 38, dtype=np.uint8)),
        ]
        pipe = GnumapSnp(ref, PipelineConfig())
        with scope() as reg:
            acc = pipe.map_reads(reads)
        assert MappingStats.of(reg.snapshot()).n_mapped == 2
        depth = acc.total_depth()
        assert depth[:62].sum() > 30  # left read's evidence present
        assert depth[-62:].sum() > 30

    def test_n_run_reference_never_called(self):
        ref, _ = simulate_genome(
            GenomeSpec(length=5000, n_repeats=0, n_run_length=300), seed=21
        )
        reads = ReadSimulator(
            [ref], ReadSimSpec(read_length=62, coverage=8.0), seed=22
        ).simulate()
        result = GnumapSnp(ref, PipelineConfig()).run(reads)
        n_positions = set(np.nonzero(ref.codes == 4)[0].tolist())
        assert all(s.pos not in n_positions for s in result.snps)

    def test_saturated_chardisc_still_calls(self):
        """255+ coverage saturates the byte counters; calls must still be
        sane (the paper's argument that the first 255 reads approximate the
        rest)."""
        ref, _ = simulate_genome(GenomeSpec(length=400, n_repeats=0), seed=23)
        pos = 200
        alt = (int(ref.codes[pos]) + 1) % 4
        catalog = VariantCatalog([Variant(pos, int(ref.codes[pos]), alt)])
        (hap,) = apply_variants(ref, catalog)
        reads = ReadSimulator(
            [hap],
            ReadSimSpec(read_length=62, coverage=300.0,
                        error_model=IlluminaErrorModel(start_error=0.001,
                                                       end_error=0.005)),
            seed=24,
        ).simulate()
        config = PipelineConfig(accumulator="CHARDISC")
        result = GnumapSnp(ref, config).run(reads)
        assert any(s.pos == pos for s in result.snps)
