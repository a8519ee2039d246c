"""Tests for the continuous negative-multinomial test helpers (samplers,
kernel log-likelihood and the paper's monoploid MLE oracle)."""

import numpy as np
import pytest

from repro.errors import CallingError
from tests.calling.negative_multinomial import (
    loglik,
    mle_monoploid,
    sample_alternative,
    sample_heterozygous,
    sample_null,
)


class TestLoglik:
    def test_uniform_kernel(self):
        z = np.array([2.0, 2, 2, 2, 2])
        ll = loglik(z, np.full(5, 0.2))
        assert ll[0] == pytest.approx(10 * np.log(0.2))

    def test_impossible_support(self):
        z = np.array([1.0, 0, 0, 0, 0])
        p = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
        assert loglik(z, p)[0] == -np.inf

    def test_mle_maximises(self):
        # the paper's MLE must beat any perturbed (p_top, p_rest) pair
        z = np.array([[14.0, 1, 3, 2, 0]])
        p_top, p_rest = mle_monoploid(z)

        def structured_ll(pt, pr):
            order = np.argsort(-z[0])
            p = np.empty(5)
            p[order[0]] = pt
            p[order[1:]] = pr
            return loglik(z, p)[0]

        best = structured_ll(p_top[0], p_rest[0])
        for delta in (-0.05, 0.05):
            pt = p_top[0] + delta
            pr = (1 - pt) / 4
            if 0 < pt < 1:
                assert structured_ll(pt, pr) <= best + 1e-9

    def test_validation(self):
        with pytest.raises(CallingError):
            loglik(np.zeros(5), np.full(4, 0.25))
        with pytest.raises(CallingError):
            loglik(np.zeros(5), np.full(5, 0.3))


class TestMle:
    def test_paper_values(self):
        z = np.array([[14.0, 1, 3, 2, 0]])
        p_top, p_rest = mle_monoploid(z)
        assert p_top[0] == pytest.approx(14 / 20)
        assert p_rest[0] == pytest.approx(6 / 80)

    def test_zero_depth_null(self):
        p_top, p_rest = mle_monoploid(np.zeros((1, 5)))
        assert p_top[0] == 0.2 and p_rest[0] == 0.2


class TestSamplers:
    def test_null_uniform_in_expectation(self):
        z = sample_null(4000, depth=10.0, seed=0)
        assert z.shape == (4000, 5)
        assert (z >= 0).all()
        props = z.mean(axis=0) / z.mean(axis=0).sum()
        assert np.allclose(props, 0.2, atol=0.01)

    def test_alternative_dominant_channel(self):
        z = sample_alternative(2000, depth=10.0, dominant_channel=3, purity=0.9, seed=1)
        frac = z[:, 3].sum() / z.sum()
        assert 0.85 < frac < 0.95

    def test_heterozygous_split(self):
        z = sample_heterozygous(2000, depth=10.0, channel_a=0, channel_b=2,
                                purity=0.9, seed=2)
        fa = z[:, 0].sum() / z.sum()
        fc = z[:, 2].sum() / z.sum()
        assert 0.38 < fa < 0.52 and 0.38 < fc < 0.52

    def test_depth_scaling(self):
        z = sample_null(1000, depth=20.0, seed=3)
        assert z.sum(axis=1).mean() == pytest.approx(20.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(CallingError):
            sample_null(-1, 10.0)
        with pytest.raises(CallingError):
            sample_alternative(10, 10.0, dominant_channel=9)
        with pytest.raises(CallingError):
            sample_alternative(10, 10.0, dominant_channel=0, purity=0.0)
        with pytest.raises(CallingError):
            sample_heterozygous(10, 10.0, channel_a=1, channel_b=1)
