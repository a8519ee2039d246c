"""Tests for the monoploid and diploid LRT statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CallingError
from repro.calling.lrt import (
    lrt_statistic_diploid,
    lrt_statistic_monoploid,
    top_channels,
)


def manual_monoploid(z):
    """Direct transcription of the paper's formula for one position."""
    z = np.asarray(z, dtype=float)
    n = z.sum()
    if n == 0:
        return 0.0
    z5 = z.max()
    p5 = z5 / n
    p4 = (n - z5) / (4 * n)
    logL1 = (z5 * np.log(p5) if z5 > 0 else 0.0) + (
        (n - z5) * np.log(p4) if n - z5 > 0 else 0.0
    )
    return max(0.0, 2 * (logL1 - n * np.log(0.2)))


class TestMonoploid:
    def test_matches_manual_formula(self):
        rng = np.random.default_rng(0)
        z = rng.gamma(2.0, 3.0, size=(50, 5))
        stat = lrt_statistic_monoploid(z)
        for i in range(50):
            assert stat[i] == pytest.approx(manual_monoploid(z[i]))

    def test_pure_signal_formula(self):
        # all mass on one base: lambda = 0.2^n / 1 -> stat = -2 n log 0.2
        z = np.array([10.0, 0, 0, 0, 0])
        stat = lrt_statistic_monoploid(z)[0]
        assert stat == pytest.approx(-2 * 10 * np.log(0.2))

    def test_uniform_background_near_zero(self):
        z = np.full((1, 5), 4.0)
        stat = lrt_statistic_monoploid(z)[0]
        # top proportion = 0.2 exactly -> statistic 0
        assert stat == pytest.approx(0.0, abs=1e-9)

    def test_zero_depth_zero(self):
        assert lrt_statistic_monoploid(np.zeros((1, 5)))[0] == 0.0

    def test_monotone_in_dominance(self):
        # shifting mass into the top channel at fixed n raises the statistic
        stats = []
        for top in (6.0, 8.0, 10.0, 12.0):
            rest = (20.0 - top) / 4.0
            z = np.array([top, rest, rest, rest, rest])
            stats.append(lrt_statistic_monoploid(z)[0])
        assert all(b > a for a, b in zip(stats, stats[1:]))

    def test_scales_with_depth(self):
        z1 = np.array([8.0, 1, 1, 1, 1])
        z2 = 2 * z1
        assert lrt_statistic_monoploid(z2)[0] == pytest.approx(
            2 * lrt_statistic_monoploid(z1)[0]
        )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        z = rng.gamma(2.0, 2.0, 5)
        base = lrt_statistic_monoploid(z)[0]
        for _ in range(5):
            perm = rng.permutation(5)
            assert lrt_statistic_monoploid(z[perm])[0] == pytest.approx(base)

    def test_single_vector_accepted(self):
        assert lrt_statistic_monoploid(np.array([5.0, 0, 0, 0, 0])).shape == (1,)

    def test_negative_rejected(self):
        with pytest.raises(CallingError):
            lrt_statistic_monoploid(np.array([-1.0, 0, 0, 0, 0]))

    def test_bad_shape_rejected(self):
        with pytest.raises(CallingError):
            lrt_statistic_monoploid(np.zeros((3, 4)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=5, max_size=5))
    def test_nonnegative_property(self, z):
        stat = lrt_statistic_monoploid(np.array(z))[0]
        assert stat >= 0.0
        assert np.isfinite(stat)


class TestDiploid:
    def test_het_alternative_wins_on_balanced_two_bases(self):
        z = np.array([10.0, 10.0, 0.3, 0.3, 0.1])
        stat, het = lrt_statistic_diploid(z)
        assert het[0]
        assert stat[0] > 0

    def test_hom_alternative_wins_on_single_base(self):
        z = np.array([18.0, 0.5, 0.5, 0.5, 0.5])
        stat, het = lrt_statistic_diploid(z)
        assert not het[0]

    def test_diploid_stat_at_least_monoploid(self):
        # the diploid alternative is a superset: stat >= monoploid stat
        rng = np.random.default_rng(2)
        z = rng.gamma(2.0, 3.0, size=(100, 5))
        mono = lrt_statistic_monoploid(z)
        dip, _ = lrt_statistic_diploid(z)
        assert (dip >= mono - 1e-9).all()

    def test_het_50_50_split_beats_hom_model(self):
        z = np.array([10.0, 10.0, 0.0, 0.0, 0.0])
        stat, het = lrt_statistic_diploid(z)
        mono = lrt_statistic_monoploid(z)
        assert het[0]
        assert stat[0] > mono[0]

    def test_zero_depth(self):
        stat, het = lrt_statistic_diploid(np.zeros((1, 5)))
        assert stat[0] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=5, max_size=5))
    def test_nonnegative_property(self, z):
        stat, _ = lrt_statistic_diploid(np.array(z))
        assert stat[0] >= 0.0 and np.isfinite(stat[0])


class TestHetMargin:
    def test_default_margin_separates_noise_from_het(self):
        """The calibration behind HET_MARGIN: homozygous evidence
        with a small noisy second channel stays hom; balanced splits at
        realistic depth go het."""
        from repro.calling.lrt import HET_MARGIN

        noise = np.array([[11.5, 0.3, 0.15, 0.05, 0.0]])
        _, het = lrt_statistic_diploid(noise)
        assert not het[0]

        balanced = np.array([[6.0, 5.5, 0.2, 0.1, 0.0]])
        _, het2 = lrt_statistic_diploid(balanced)
        assert het2[0]
        assert HET_MARGIN == pytest.approx(6.63)


    def test_margin_monotone(self):
        """At the fixed margin the genotype flips from hom to het once, as
        the second allele's mass grows towards the first's."""
        second = np.linspace(0.0, 6.0, 61)
        z = np.column_stack([np.full(61, 6.0), second, np.full(61, 0.2),
                             np.full(61, 0.1), np.zeros(61)])
        _, het = lrt_statistic_diploid(z)
        assert not het[0] and het[-1]
        assert (np.diff(het.astype(int)) >= 0).all()


class TestTopChannels:
    def test_basic(self):
        top, second = top_channels(np.array([1.0, 5.0, 3.0, 0.0, 0.0]))
        assert top[0] == 1 and second[0] == 2

    def test_tie_breaks_to_lower_index(self):
        top, second = top_channels(np.array([2.0, 2.0, 0.0, 0.0, 0.0]))
        assert top[0] == 0 and second[0] == 1

    def test_vectorised(self):
        z = np.array([[9, 1, 1, 1, 1], [1, 1, 9, 8, 1]], dtype=float)
        top, second = top_channels(z)
        assert top.tolist() == [0, 2]
        assert second.tolist() == [1, 3]
