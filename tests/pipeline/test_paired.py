"""Tests for the paired-end pipeline (insert-aware weighting)."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.evaluation.metrics import compare_to_truth
from repro.genome.variants import Variant, VariantCatalog, apply_variants
from repro.pipeline.config import PipelineConfig
from repro.pipeline.paired import PairedConfig, PairedGnumap
from repro.simulate.error_model import IlluminaErrorModel
from repro.simulate.genome_sim import GenomeSpec, simulate_genome
from repro.simulate.paired import PairedReadSimSpec, PairedReadSimulator


def paired_workload(length=15_000, n_snps=10, seed=1, coverage=12.0,
                    n_repeats=0, repeat_length=0, repeat_divergence=0.0,
                    insert_mean=250.0):
    ref, repeats = simulate_genome(
        GenomeSpec(length=length, n_repeats=n_repeats,
                   repeat_length=repeat_length,
                   repeat_divergence=repeat_divergence),
        seed=seed,
    )
    if n_snps:
        from repro.genome.variants import generate_snp_catalog

        catalog = generate_snp_catalog(ref, n_snps, seed=seed + 1, min_margin=62)
    else:
        catalog = VariantCatalog()
    (hap,) = apply_variants(ref, catalog)
    pairs = PairedReadSimulator(
        [hap],
        PairedReadSimSpec(read_length=62, coverage=coverage,
                          insert_mean=insert_mean, insert_sd=25.0),
        seed=seed + 2,
    ).simulate()
    # the pipeline's insert prior must describe the library prep
    paired_cfg = PairedConfig(insert_mean=insert_mean, insert_sd=25.0)
    return ref, catalog, pairs, repeats, paired_cfg


class TestPairedConfig:
    def test_validation(self):
        with pytest.raises(PipelineError):
            PairedConfig(insert_mean=0)
        with pytest.raises(PipelineError):
            PairedConfig(discordant_logpenalty=1.0)

    def test_insert_logpdf_peaks_at_mean(self):
        cfg = PairedConfig(insert_mean=300, insert_sd=30)
        vals = cfg.insert_logpdf(np.array([200.0, 300.0, 400.0]))
        assert vals[1] > vals[0] and vals[1] > vals[2]


class TestPairedPipeline:
    def test_finds_planted_snps(self):
        ref, catalog, pairs, _, pcfg = paired_workload(seed=11)
        result = PairedGnumap(ref, PipelineConfig(), pcfg).run(pairs)
        counts = compare_to_truth(result.snps, catalog)
        assert counts.precision >= 0.9
        assert counts.recall >= 0.7
        assert result.stats.n_mapped > 0.9 * result.stats.n_reads

    def test_no_false_calls_on_clean_genome(self):
        ref, _, pairs, _, pcfg = paired_workload(n_snps=0, seed=12, coverage=8.0)
        result = PairedGnumap(ref, PipelineConfig(), pcfg).run(pairs)
        assert result.snps == []

    def test_depth_tracks_coverage(self):
        ref, _, pairs, _, pcfg = paired_workload(n_snps=0, seed=13, coverage=10.0)
        paired = PairedGnumap(ref, PipelineConfig(), pcfg)
        acc, _ = paired.map_pairs(pairs)
        depth = acc.total_depth()
        interior = depth[300:-300]
        assert abs(np.median(interior) - 10.0) < 4.0

    def test_discordant_pairs_still_contribute(self):
        """A pair whose mates cannot be concordantly placed (we fake it by
        using mates from distant fragments) still deposits evidence via the
        singleton fallback."""
        from repro.simulate.paired import ReadPair

        ref, _, pairs, _, pcfg = paired_workload(n_snps=0, seed=14, coverage=4.0)
        frankenstein = ReadPair(
            read1=pairs[0].read1,
            read2=pairs[-1].read2,
            fragment_start=pairs[0].fragment_start,
            insert_size=10**6,
        )
        paired = PairedGnumap(ref, PipelineConfig(), pcfg)
        acc, stats = paired.map_pairs([frankenstein])
        assert stats.n_mapped == 2
        assert acc.total_depth().sum() > 60  # both mates deposited


@pytest.fixture(scope="module")
def repeat_case():
    """A SNP planted inside one copy of an *exact* 300 bp repeat."""
    ref, _, _, repeats, pcfg = paired_workload(
        length=30_000, n_snps=0, seed=15,
        n_repeats=1, repeat_length=300, repeat_divergence=0.0,
        insert_mean=450.0,
    )
    rep = repeats[0]
    pos = rep.src_start + 150
    alt = (int(ref.codes[pos]) + 1) % 4
    catalog = VariantCatalog([Variant(pos, int(ref.codes[pos]), alt)])
    (hap,) = apply_variants(ref, catalog)
    pairs = PairedReadSimulator(
        [hap],
        PairedReadSimSpec(read_length=62, coverage=20.0,
                          insert_mean=450.0, insert_sd=25.0,
                          error_model=IlluminaErrorModel()),
        seed=16,
    ).simulate()
    result = PairedGnumap(ref, PipelineConfig(), pcfg).run(pairs)
    return ref, pairs, pcfg, pos, rep.copy_start + 150, alt, result


class TestRepeatDisambiguation:
    def test_pairing_concentrates_weight_on_true_copy(self, repeat_case):
        """The paired pipeline's reason to exist: a SNP inside an *exact*
        repeat is 50/50-ambiguous for single-end reads, but a mate anchored
        in unique flanking sequence pins the fragment, so the paired caller
        assigns the variant to the true copy (and calls it homozygous there,
        rather than a phantom het at both copies)."""
        _, _, _, pos, copy_pos, alt, result = repeat_case
        z = result.accumulator.snapshot()
        true_alt_mass = z[pos, alt]
        copy_alt_mass = z[copy_pos, alt]
        # pairing concentrates the alt evidence on the true copy
        assert true_alt_mass > 2.0 * copy_alt_mass, (true_alt_mass, copy_alt_mass)
        called = {s.pos for s in result.snps}
        assert pos in called

    def test_band_mode_is_honoured_and_calls_match(self, repeat_case):
        ref, pairs, pcfg, *_, full = repeat_case
        banded = PairedGnumap(ref, PipelineConfig(band_mode="adaptive"), pcfg).run(pairs)
        assert banded.metrics.counter("phmm.cells_banded") > 0
        assert full.metrics.counter("phmm.cells_banded") == 0
        assert [(s.pos, s.alt_name) for s in banded.snps] == [
            (s.pos, s.alt_name) for s in full.snps
        ]

    def test_run_is_measured_by_the_pipeline_spans(self, repeat_case):
        *_, result = repeat_case
        stages = result.metrics.span_node("map_reads")["children"]
        assert {"seed", "align", "accumulate"} <= set(stages)
        assert result.metrics.counter("pipeline.reads") == result.stats.n_reads
        assert result.metrics.counter("pipeline.pairs") == result.stats.n_pairs
        assert result.reads_per_second > 0
