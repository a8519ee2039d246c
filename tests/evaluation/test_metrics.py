"""Tests for truth-set comparison metrics."""

from dataclasses import dataclass

import pytest

from repro.errors import ReproError
from repro.evaluation.metrics import ConfusionCounts, compare_to_truth, roc_sweep
from repro.genome.alphabet import A, C, G, T
from repro.genome.variants import Variant, VariantCatalog


@dataclass
class FakeCall:
    pos: int
    alt_base: int = G


def catalog():
    return VariantCatalog([Variant(10, A, G), Variant(20, C, T), Variant(30, A, C)])


class TestConfusionCounts:
    def test_derived_metrics(self):
        c = ConfusionCounts(tp=8, fp=2, fn=2)
        assert c.precision == pytest.approx(0.8)
        assert c.recall == pytest.approx(0.8)
        assert c.f1 == pytest.approx(0.8)

    def test_zero_divisions(self):
        c = ConfusionCounts(tp=0, fp=0, fn=0)
        assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0


class TestCompareToTruth:
    def test_basic_counts(self):
        calls = [FakeCall(10), FakeCall(20), FakeCall(99)]
        counts = compare_to_truth(calls, catalog())
        assert counts.tp == 2 and counts.fp == 1 and counts.fn == 1

    def test_allele_aware(self):
        calls = [FakeCall(10, alt_base=G), FakeCall(20, alt_base=G)]  # 20 wrong allele
        counts = compare_to_truth(calls, catalog(), allele_aware=True)
        assert counts.tp == 1 and counts.fn == 2

    def test_genotype_record_path(self):
        from repro.calling.records import BaseCall, SNPCall

        call = BaseCall(pos=10, depth=10, top_channel=G, second_channel=A,
                        stat=20, pvalue=1e-5, significant=True)
        snp = SNPCall(pos=10, ref_base=A, call=call)
        counts = compare_to_truth([snp], catalog(), allele_aware=True)
        assert counts.tp == 1

    def test_empty_calls(self):
        counts = compare_to_truth([], catalog())
        assert counts.tp == 0 and counts.fn == 3

    def test_record_without_pos_rejected(self):
        with pytest.raises(ReproError):
            compare_to_truth([object()], catalog())


class TestRocSweep:
    def test_descending_threshold_monotone_counts(self):
        scored = [(10, 5.0), (99, 4.0), (20, 3.0), (98, 2.0), (30, 1.0)]
        rows = roc_sweep(scored, catalog())
        # tp column non-decreasing, recall ends at 1.0
        tps = rows[:, 1]
        assert (tps[1:] >= tps[:-1]).all()
        assert rows[-1, 4] == pytest.approx(1.0)

    def test_tied_scores_make_one_operating_point(self):
        """A threshold admits every candidate of a score at once: ties give
        one row, whatever order they arrive in."""
        rows = roc_sweep([(1, 5.0), (2, 5.0)], catalog())
        assert rows.tolist() == [[5.0, 0.0, 2.0, 0.0, 0.0]]
        scored = [(10, 5.0), (99, 5.0), (20, 3.0)]
        rows = roc_sweep(scored, catalog())
        assert rows.tolist() == roc_sweep(scored[::-1], catalog()).tolist()
        assert rows[:, :3].tolist() == [[5.0, 1.0, 1.0], [3.0, 2.0, 1.0]]

    def test_duplicate_positions_counted_once(self):
        rows = roc_sweep([(10, 5.0), (10, 4.0)], catalog())
        assert rows.shape[0] == 1

    def test_empty_truth_rejected(self):
        with pytest.raises(ReproError):
            roc_sweep([(1, 1.0)], VariantCatalog())
