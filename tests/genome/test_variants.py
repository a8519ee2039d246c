"""Tests for variant records, catalog generation and application."""

import io

import numpy as np
import pytest

from repro.errors import VariantError
from repro.genome.alphabet import A, C, G, T
from repro.genome.variants import (
    Variant,
    VariantCatalog,
    apply_variants,
    generate_snp_catalog,
)
from repro.simulate.genome_sim import GenomeSpec, simulate_genome
from tests.genome.tstv import is_transition, transition_fraction


def small_ref(length=2000, seed=0):
    ref, _ = simulate_genome(GenomeSpec(length=length, n_repeats=0), seed=seed)
    return ref


class TestVariant:
    def test_valid(self):
        v = Variant(pos=3, ref=A, alt=G)
        assert is_transition(v.ref, v.alt)

    def test_transversion(self):
        v = Variant(pos=0, ref=A, alt=C)
        assert not is_transition(v.ref, v.alt)

    def test_ref_eq_alt_rejected(self):
        with pytest.raises(VariantError):
            Variant(pos=0, ref=A, alt=A)

    def test_negative_pos_rejected(self):
        with pytest.raises(VariantError):
            Variant(pos=-1, ref=A, alt=G)

    def test_bad_genotype_rejected(self):
        with pytest.raises(VariantError):
            Variant(pos=0, ref=A, alt=G, genotype="x")


class TestVariantCatalog:
    def test_sorted_and_unique(self):
        cat = VariantCatalog([Variant(5, A, G), Variant(2, C, T)])
        assert cat.positions.tolist() == [2, 5]
        assert 5 in cat and 3 not in cat
        assert cat.at(2).alt == T
        assert cat.at(99) is None

    def test_duplicate_positions_rejected(self):
        with pytest.raises(VariantError, match="duplicate"):
            VariantCatalog([Variant(1, A, G), Variant(1, C, T)])

    def test_tsv_round_trip(self):
        cat = VariantCatalog([Variant(1, A, G), Variant(9, C, T, genotype="het")])
        buf = io.StringIO()
        cat.write_tsv(buf)
        back = VariantCatalog.read_tsv(io.StringIO(buf.getvalue()))
        assert len(back) == 2
        assert back.at(9).genotype == "het"

    def test_tsv_bad_header_rejected(self):
        with pytest.raises(VariantError, match="header"):
            VariantCatalog.read_tsv(io.StringIO("wrong\theader\n"))

    def test_transition_fraction(self):
        cat = VariantCatalog([Variant(1, A, G), Variant(2, A, C)])
        assert transition_fraction(cat) == 0.5
        assert transition_fraction(VariantCatalog()) == 0.0


class TestGenerateCatalog:
    def test_count_and_determinism(self):
        ref = small_ref()
        c1 = generate_snp_catalog(ref, 20, seed=3)
        c2 = generate_snp_catalog(ref, 20, seed=3)
        assert len(c1) == 20
        assert c1.positions.tolist() == c2.positions.tolist()

    def test_even_spacing(self):
        ref = small_ref(length=10_000)
        cat = generate_snp_catalog(ref, 10, seed=1)
        gaps = np.diff(cat.positions)
        # strata of 1000: adjacent SNPs never more than 2 strata apart
        assert gaps.max() < 2000
        assert gaps.min() > 0

    def test_refs_match_genome(self):
        ref = small_ref()
        for v in generate_snp_catalog(ref, 15, seed=2):
            assert int(ref.codes[v.pos]) == v.ref

    def test_transition_bias(self):
        ref = small_ref(length=60_000)
        cat = generate_snp_catalog(ref, 500, seed=4, transition_bias=2.0)
        # expected Ts fraction = 2/4 = 0.5; allow generous tolerance
        assert 0.4 < transition_fraction(cat) < 0.6

    def test_margin_respected(self):
        ref = small_ref()
        cat = generate_snp_catalog(ref, 5, seed=5, min_margin=300)
        assert cat.positions.min() >= 300
        assert cat.positions.max() < len(ref) - 300

    def test_het_fraction(self):
        ref = small_ref(length=20_000)
        cat = generate_snp_catalog(ref, 200, seed=6, het_fraction=0.5)
        het = sum(1 for v in cat if v.genotype == "het")
        assert 60 < het < 140

    def test_too_many_rejected(self):
        ref = small_ref(length=2000)
        with pytest.raises(VariantError):
            generate_snp_catalog(ref, 3000, seed=0)

    def test_zero_ok(self):
        assert len(generate_snp_catalog(small_ref(), 0)) == 0


class TestApplyVariants:
    def test_haploid(self):
        ref = small_ref()
        cat = generate_snp_catalog(ref, 10, seed=7)
        (hap,) = apply_variants(ref, cat, ploidy=1)
        diffs = np.nonzero(hap.codes != ref.codes)[0]
        assert diffs.tolist() == cat.positions.tolist()
        for v in cat:
            assert int(hap.codes[v.pos]) == v.alt

    def test_diploid_het_on_second_only(self):
        ref = small_ref()
        cat = VariantCatalog(
            [
                Variant(int(p), int(ref.codes[p]), (int(ref.codes[p]) + 1) % 4, g)
                for p, g in [(10, "hom"), (500, "het")]
            ]
        )
        h0, h1 = apply_variants(ref, cat, ploidy=2)
        assert h0.codes[10] != ref.codes[10] and h1.codes[10] != ref.codes[10]
        assert h0.codes[500] == ref.codes[500] and h1.codes[500] != ref.codes[500]

    def test_ref_mismatch_rejected(self):
        ref = small_ref()
        wrong_ref = (int(ref.codes[50]) + 1) % 4
        cat = VariantCatalog([Variant(50, wrong_ref, (wrong_ref + 1) % 4)])
        with pytest.raises(VariantError, match="catalog ref"):
            apply_variants(ref, cat)

    def test_out_of_range_rejected(self):
        ref = small_ref(length=2000)
        cat = VariantCatalog([Variant(5000, A, G)])
        with pytest.raises(VariantError, match="beyond"):
            apply_variants(ref, cat)

    def test_bad_ploidy_rejected(self):
        with pytest.raises(VariantError):
            apply_variants(small_ref(), VariantCatalog(), ploidy=3)
