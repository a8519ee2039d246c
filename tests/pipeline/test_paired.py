"""Tests for the paired-end pipeline (insert-aware weighting)."""

import hashlib
import io

import numpy as np
import pytest

from repro.calling.records import write_snp_calls
from repro.errors import PipelineError
from repro.evaluation.metrics import compare_to_truth
from repro.genome.variants import Variant, VariantCatalog, apply_variants
from repro.pipeline.config import PipelineConfig
from repro.pipeline.evidence import PairEvidence
from repro.genome.fastq import Read
from repro.memory.base import make_accumulator
from repro.observability import scope
from repro.pipeline.gnumap import MappingStats
from repro.pipeline.paired import DISCORDANT_LOGPENALTY, PairedConfig, PairedGnumap
from repro.simulate.paired import ReadPair
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
        acc = paired.map_pairs(pairs)
        depth = acc.total_depth()
        interior = depth[300:-300]
        assert abs(np.median(interior) - 10.0) < 4.0

    def test_discordant_pairs_still_contribute(self):
        """A pair whose mates cannot be concordantly placed (we fake it by
        using mates from distant fragments) still deposits evidence via the
        singleton fallback."""
        ref, _, pairs, _, pcfg = paired_workload(n_snps=0, seed=14, coverage=4.0)
        frankenstein = ReadPair(
            read1=pairs[0].read1,
            read2=pairs[-1].read2,
            fragment_start=pairs[0].fragment_start,
            insert_size=10**6,
        )
        paired = PairedGnumap(ref, PipelineConfig(), pcfg)
        with scope() as reg:
            acc = paired.map_pairs([frankenstein])
        assert MappingStats.of(reg.snapshot()).n_mapped == 2
        assert acc.total_depth().sum() > 60  # both mates deposited

    def test_wrong_length_accumulator_rejected(self):
        ref, _, pairs, _, pcfg = paired_workload(n_snps=0, seed=14, coverage=1.0)
        paired = PairedGnumap(ref, PipelineConfig(), pcfg)
        with pytest.raises(PipelineError, match="accumulator length"):
            paired.map_pairs(pairs[:2], make_accumulator("NORM", len(ref) + 1))


def _mate(loglik, starts, strand):
    """A mate's candidates as the evidence the pairing step reads."""
    n = len(starts)
    return PairEvidence(
        z=np.zeros((n, 1, 5)),
        loglik=np.asarray(loglik, dtype=np.float64),
        starts=np.asarray(starts, dtype=np.int64),
        strands=np.full(n, strand, dtype=np.int64),
        groups=np.zeros(n, dtype=np.int64),
    )


class TestUnequalMates:
    """A 62 bp mate with a 50 bp (trimmed) partner."""

    def test_insert_ends_where_the_reverse_mate_does(self):
        ref, *_ = paired_workload(length=2_000, n_snps=0, seed=3, coverage=0.5)
        pcfg = PairedConfig(insert_mean=300.0, insert_sd=10.0)
        paired = PairedGnumap(ref, PipelineConfig(), pcfg)
        # Forward 62 bp mate at 1000; the reverse 50 bp mate's two candidates
        # end the fragment at 1300 (insert 300, the mode) and 1312.
        forward = _mate([0.0], [1000], +1), 62
        reverse = _mate([0.0, 0.0], [1250, 1262], -1), 50
        prior = np.exp(pcfg.insert_logpdf(np.array([300.0, 312.0])))
        for (m1, len1), (m2, len2), two in ((forward, reverse, 1), (reverse, forward, 0)):
            weights = paired._pair_weights(m1, m2, len1, len2)
            np.testing.assert_allclose(weights[two], prior / prior.sum(), rtol=1e-12)
            np.testing.assert_allclose(weights[1 - two], [1.0])

    def test_mates_touching_end_to_end_are_proper(self):
        ref, *_ = paired_workload(length=2_000, n_snps=0, seed=3, coverage=0.5)
        pcfg = PairedConfig(insert_mean=112.0, insert_sd=10.0)
        paired = PairedGnumap(ref, PipelineConfig(), pcfg)
        forward = _mate([0.0], [1000], +1)
        # insert 112 = 62 + 50 (proper, at the mode) against 111 (overlapping
        # mates: improper, pays the discordance prior)
        reverse = _mate([0.0, 0.0], [1062, 1061], -1)
        _, w2 = paired._pair_weights(forward, reverse, 62, 50)
        want = np.exp([pcfg.insert_logpdf(np.array(112.0)), DISCORDANT_LOGPENALTY])
        np.testing.assert_allclose(w2, want / want.sum(), rtol=1e-12)

    def test_trimmed_mates_map_whatever_the_kernel_calls_hold(self):
        """Mates of unequal length never share a kernel call (the
        length-change flush cuts between them), and a small ``batch_size``
        cuts between equal ones: the driver buffers, so every mate is
        weighted against its partner and the evidence is the same."""
        ref, _, pairs, _, pcfg = paired_workload(n_snps=0, seed=14, coverage=1.0)
        trimmed = [
            ReadPair(
                read1=p.read1,
                read2=Read(p.read2.name, p.read2.codes[:50], p.read2.quals[:50]),
                fragment_start=p.fragment_start,
                insert_size=p.insert_size,
            )
            if i % 3 == 0
            else p
            for i, p in enumerate(pairs[:42])
        ]
        with scope() as reg:
            acc = PairedGnumap(ref, PipelineConfig(), pcfg).map_pairs(trimmed)
        stats = MappingStats.of(reg.snapshot())
        assert stats.n_reads == 84 and stats.n_mapped >= 80
        # a trimmed mate opens a kernel call and so does the read after it
        assert stats.n_batches >= 2 * 14
        bases = 14 * (62 + 50) + 28 * (62 + 62)
        assert acc.total_depth().sum() == pytest.approx(bases, rel=0.08)
        with scope() as reg:
            small = PairedGnumap(ref, PipelineConfig(batch_size=6), pcfg).map_pairs(trimmed)
        assert MappingStats.of(reg.snapshot()).n_batches > stats.n_batches
        assert np.array_equal(small.snapshot(), acc.snapshot())



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


#: sha256 of call TSV + ``accumulator.snapshot()`` bytes on ``repeat_case``.
#: NORM is as recorded at ef6e6ec, the last commit whose paired driver
#: aligned one mate per kernel call.  CHARDISC was re-pinned when the
#: kernels moved to the doubling scan and power-of-two row scales, whose z
#: sits within 1e-12 of the old kernels' (``test_kernel_oracle.KERNEL_RTOL``):
#: the call TSV is unchanged byte for byte, and 3,310 of the 30,000
#: snapshot rows moved by at most 1.2e-7 relative (one float32 ulp; 3.8e-6
#: absolute).  It was re-pinned again when the kernels became the compiled
#: lane kernels (sequential G_Y scan, exact row exponents): NORM and the
#: call TSV unchanged byte for byte, 735 of the 30,000 CHARDISC rows moved
#: by at most one float32 ulp (1.2e-7 relative, 3.8e-6 absolute).
PAIRED_PINS = {
    "NORM": "408140ee2e464d476c60b924224555cc1f8e4b2fef7f4f498d986e7914b43ba1",
    "CHARDISC": "464270de3444f795473dd3bbada8e9613ae2346375f597301b1e59505e1c26a6",
}


def _pin(result):
    buf = io.StringIO()
    write_snp_calls(buf, result.snps)
    return hashlib.sha256(
        buf.getvalue().encode() + result.accumulator.snapshot().tobytes()
    ).hexdigest()


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

    def test_calls_and_evidence_pinned(self, repeat_case):
        ref, pairs, pcfg, *_, result = repeat_case
        assert _pin(result) == PAIRED_PINS["NORM"]
        chardisc = PairedGnumap(ref, PipelineConfig(accumulator="CHARDISC"), pcfg)
        assert _pin(chardisc.run(pairs)) == PAIRED_PINS["CHARDISC"]

    def test_band_mode_is_honoured_and_calls_match(self, repeat_case):
        ref, pairs, pcfg, *_, full = repeat_case
        banded = PairedGnumap(ref, PipelineConfig(band_mode="adaptive"), pcfg).run(pairs)
        assert _pin(banded) == (
            "f03668570b8b8afcea3b3e1ff61c9d26fe5332f1420c0d2a86161a312c3c2ebb"
        )
        assert banded.metrics.counter("phmm.cells_banded") > 0
        assert full.metrics.counter("phmm.cells_banded") == 0
        assert [(s.pos, s.alt_name) for s in banded.snps] == [
            (s.pos, s.alt_name) for s in full.snps
        ]

    def test_run_is_measured_by_the_pipeline_spans(self, repeat_case):
        *_, result = repeat_case
        stages = result.metrics.span_node("map_reads")["children"]
        assert {"seed", "align", "weigh", "accumulate"} <= set(stages)
        assert result.metrics.counter("pipeline.reads") == result.stats.n_reads
        assert result.metrics.counter("pipeline.pairs") == result.stats.n_pairs
        assert result.metrics.counter("pipeline.batches") == result.stats.n_batches > 0
        assert result.metrics.gauges["pipeline.peak_accumulator_bytes"] > 0
        weights = result.metrics.histogram("pipeline.mapping_weight")
        assert weights is not None and weights["count"] == result.stats.n_pairs
        assert result.reads_per_second > 0
