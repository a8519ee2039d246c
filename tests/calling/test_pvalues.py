"""Tests for p-values, the Bonferroni cutoff, and BH FDR control."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.errors import CallingError
from repro.calling.pvalues import (
    benjamini_hochberg,
    chi2_pvalue,
    significance_threshold,
)


def bh_adjusted_pvalues(p):
    """BH-adjusted ("q-value"-style) p-values: the oracle for the step-up
    mask, since ``benjamini_hochberg(p, fdr) == (adjusted <= fdr)``."""
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    return out


class TestChi2Pvalue:
    def test_known_quantiles(self):
        assert chi2_pvalue(np.array([0.0]))[0] == pytest.approx(1.0)
        assert chi2_pvalue(np.array([3.841]))[0] == pytest.approx(0.05, abs=1e-3)

    def test_monotone_decreasing(self):
        p = chi2_pvalue(np.array([0.0, 1.0, 5.0, 20.0]))
        assert (np.diff(p) < 0).all()

    def test_negative_rejected(self):
        with pytest.raises(CallingError):
            chi2_pvalue(np.array([-1.0]))


class TestScipyStatsBits:
    """The ``scipy.special`` calls give ``scipy.stats.chi2``'s bits."""

    def test_pvalues_equal_chi2_sf(self):
        rng = np.random.default_rng(11)
        stat = np.concatenate([
            [0.0, -0.0, 5e-324, 1e-300, 3.841, 1e308, np.inf],
            rng.exponential(5.0, 50_000),
            rng.uniform(0.0, 200.0, 50_000),
            np.logspace(-320, 308, 1_000),
        ])
        assert chi2_pvalue(stat).tobytes() == stats.chi2.sf(np.maximum(stat, 0.0), 1).tobytes()

    @pytest.mark.parametrize("alpha", (1e-9, 1e-6, 0.001, 0.05, 0.5))
    def test_threshold_equals_chi2_ppf(self, alpha):
        want = float(stats.chi2.ppf(1.0 - alpha / 5.0, 1))
        assert np.float64(significance_threshold(alpha)).tobytes() == np.float64(want).tobytes()

    def test_a_pool_worker_import_leaves_scipy_stats_out(self):
        src = Path(__file__).resolve().parents[2] / "src"
        probe = "import sys, repro.pipeline.mp_backend; print('scipy.stats' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestSignificanceThreshold:
    def test_matches_paper_construction(self):
        # (1 - alpha/5) quantile of chi^2_1
        alpha = 0.01
        expected = stats.chi2.ppf(1 - alpha / 5, 1)
        assert significance_threshold(alpha) == pytest.approx(expected)

    def test_stricter_alpha_higher_threshold(self):
        assert significance_threshold(0.0001) > significance_threshold(0.01)

    def test_equivalence_with_pvalue_cutoff(self):
        # stat > threshold  <=>  pvalue < alpha/5
        alpha = 0.001
        thr = significance_threshold(alpha)
        stat = np.array([thr - 0.01, thr + 0.01])
        p = chi2_pvalue(stat)
        assert (p < alpha / 5).tolist() == [False, True]

    def test_validation(self):
        with pytest.raises(CallingError):
            significance_threshold(0.0)
        with pytest.raises(CallingError):
            significance_threshold(1.0)


class TestBenjaminiHochberg:
    def test_known_example(self):
        p = np.array([0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205])
        mask = benjamini_hochberg(p, fdr=0.05)
        # classic textbook outcome: first 5 rejected at q=0.05... verify via
        # the step-up rule directly
        m = len(p)
        ranked = np.sort(p)
        k = max(i for i in range(m) if ranked[i] <= 0.05 * (i + 1) / m)
        assert mask.sum() == k + 1

    def test_all_null_rejects_nothing(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.2, 1.0, 100)
        assert benjamini_hochberg(p, fdr=0.05).sum() == 0

    def test_all_tiny_rejects_everything(self):
        p = np.full(10, 1e-10)
        assert benjamini_hochberg(p, fdr=0.05).all()

    def test_empty(self):
        assert benjamini_hochberg(np.array([]), 0.05).size == 0

    def test_monotone_in_fdr(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 0.2, 50)
        loose = benjamini_hochberg(p, fdr=0.2)
        strict = benjamini_hochberg(p, fdr=0.01)
        assert (strict <= loose).all()

    def test_rejection_set_is_pvalue_prefix(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0, 1, 60)
        mask = benjamini_hochberg(p, fdr=0.1)
        if mask.any():
            assert p[mask].max() <= p[~mask].min() + 1e-12

    def test_validation(self):
        with pytest.raises(CallingError):
            benjamini_hochberg(np.array([0.5]), fdr=0.0)
        with pytest.raises(CallingError):
            benjamini_hochberg(np.array([1.5]), fdr=0.05)
        with pytest.raises(CallingError):
            benjamini_hochberg(np.zeros((2, 2)), fdr=0.05)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=60),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_adjusted_pvalues_equivalent(self, p, fdr):
        p = np.array(p)
        mask = benjamini_hochberg(p, fdr=fdr)
        adjusted = bh_adjusted_pvalues(p)
        # equivalence holds away from the exact threshold boundary, where
        # the two formulations differ by float rounding (p * m / m != p)
        off_boundary = np.abs(adjusted - fdr) > 1e-9
        assert (mask == (adjusted <= fdr))[off_boundary].all()
