"""Cross-implementation tests for the forward/backward DP cores.

Three oracles, increasing in independence:
1. the naive triple-loop implementation (same recursion, no vectorisation),
2. the backward-derived likelihood (algorithmic identity),
3. brute-force enumeration of every alignment path (tiny cases).
"""

import numpy as np
import pytest

from repro.errors import AlignmentError
from repro.phmm.forward_backward import (
    backward_batch,
    emissions_batch,
    forward_batch,
)
from repro.phmm.model import PHMMParams
from repro.phmm.pwm import pwm_from_codes
from tests.phmm.parent_kernels import backward_loglik
from tests.phmm.reference_impl import (
    backward_naive,
    emissions_naive,
    forward_naive,
    loglik_bruteforce,
)

PARAMS = PHMMParams()
#: The kernels' one boundary convention (``mode=`` is a pinned keyword).
MODES = ("semiglobal",)


def random_case(rng, n_lo=2, n_hi=8, m_lo=2, m_hi=10):
    n = int(rng.integers(n_lo, n_hi))
    m = int(rng.integers(m_lo, m_hi))
    codes = rng.integers(0, 4, n).astype(np.uint8)
    errs = rng.uniform(0.001, 0.3, n)
    pwm = pwm_from_codes(codes, errs)
    window = rng.integers(0, 5, m).astype(np.uint8)
    return pwm, window


class TestEmissions:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            pwm, window = random_case(rng)
            naive = emissions_naive(pwm, window, PARAMS)
            batch = emissions_batch(pwm[None], window[None], PARAMS)[0]
            assert np.allclose(naive, batch)

    def test_n_column_neutral(self):
        pwm = pwm_from_codes(np.array([0], dtype=np.uint8), np.array([0.01]))
        window = np.array([4], dtype=np.uint8)  # N
        assert emissions_batch(pwm[None], window[None], PARAMS)[0, 0, 0] == pytest.approx(0.25)

    def test_shape_validation(self):
        with pytest.raises(AlignmentError):
            emissions_batch(np.ones((2, 3)), np.ones((2, 3)), PARAMS)
        with pytest.raises(AlignmentError):
            emissions_batch(np.ones((1, 3, 4)), np.ones((2, 5)), PARAMS)
        with pytest.raises(AlignmentError):
            emissions_batch(
                np.ones((1, 3, 4)), np.full((1, 5), 9, dtype=np.int64), PARAMS
            )

    @pytest.mark.parametrize("code", (-1, -3, -5, 5))
    def test_codes_outside_the_alphabet_rejected(self, code):
        """Negative codes used to wrap around the emission table."""
        windows = np.zeros((1, 5), dtype=np.int8)
        windows[0, 2] = code
        with pytest.raises(AlignmentError, match="window codes"):
            emissions_batch(np.full((1, 3, 4), 0.25), windows, PARAMS)


@pytest.mark.parametrize("mode", MODES)
class TestLikelihoodConsistency:
    def test_matches_naive_forward(self, mode):
        rng = np.random.default_rng(1)
        for _ in range(8):
            pwm, window = random_case(rng)
            pstar = emissions_batch(pwm[None], window[None], PARAMS)
            fwd = forward_batch(pstar, PARAMS, mode=mode)
            *_, like = forward_naive(pstar[0], PARAMS)
            assert np.isclose(fwd.loglik[0], np.log(like))

    def test_matches_bruteforce(self, mode):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 6:
            pwm, window = random_case(rng, n_hi=6, m_hi=8)
            if pwm.shape[0] * window.shape[0] > 49:
                continue
            checked += 1
            pstar = emissions_batch(pwm[None], window[None], PARAMS)
            fwd = forward_batch(pstar, PARAMS, mode=mode)
            bf = loglik_bruteforce(pstar[0], PARAMS)
            assert np.isclose(fwd.loglik[0], bf, atol=1e-9)

    def test_backward_reproduces_likelihood(self, mode):
        rng = np.random.default_rng(3)
        for _ in range(8):
            pwm, window = random_case(rng)
            pstar = emissions_batch(pwm[None], window[None], PARAMS)
            fwd = forward_batch(pstar, PARAMS, mode=mode)
            bwd = backward_batch(pstar, PARAMS, mode=mode)
            assert np.isclose(backward_loglik(bwd, mode)[0], fwd.loglik[0])

    def test_backward_matches_naive(self, mode):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pwm, window = random_case(rng)
            pstar = emissions_batch(pwm[None], window[None], PARAMS)
            bwd = backward_batch(pstar, PARAMS, mode=mode)
            bM, bGX, bGY = backward_naive(pstar[0], PARAMS)
            scale = np.exp(bwd.log_scale[0])[:, None]
            assert np.allclose(bM, bwd.bM[0] * scale, rtol=1e-8)
            assert np.allclose(bGX, bwd.bGX[0] * scale, rtol=1e-8)
            assert np.allclose(bGY, bwd.bGY[0] * scale, rtol=1e-8)

    def test_row_consistency_identity(self, mode):
        # For every read row i >= 1: sum_j f*b over x-consuming states == L.
        rng = np.random.default_rng(5)
        pwm, window = random_case(rng, n_hi=10, m_hi=14)
        pstar = emissions_batch(pwm[None], window[None], PARAMS)
        fwd = forward_batch(pstar, PARAMS, mode=mode)
        bwd = backward_batch(pstar, PARAMS, mode=mode)
        factor = np.exp(fwd.log_scale + bwd.log_scale - fwd.loglik[:, None])
        rows = ((fwd.fM * bwd.bM + fwd.fGX * bwd.bGX) * factor[:, :, None])[0]
        sums = rows.sum(axis=1)[1:]
        assert np.allclose(sums, 1.0, atol=1e-8)


class TestBatchSemantics:
    def test_batch_equals_individual(self):
        rng = np.random.default_rng(6)
        n, m = 6, 9
        pwms = np.stack(
            [pwm_from_codes(rng.integers(0, 4, n).astype(np.uint8),
                            rng.uniform(0.001, 0.2, n)) for _ in range(5)]
        )
        windows = rng.integers(0, 5, (5, m)).astype(np.uint8)
        pstar = emissions_batch(pwms, windows, PARAMS)
        batch = forward_batch(pstar, PARAMS)
        for b in range(5):
            single = forward_batch(pstar[b][None], PARAMS)
            assert np.isclose(batch.loglik[b], single.loglik[0])

    def test_long_read_no_underflow(self):
        # 500-base read: raw probabilities underflow double precision by
        # hundreds of orders of magnitude; scaling must keep this finite.
        rng = np.random.default_rng(7)
        n = 500
        codes = rng.integers(0, 4, n).astype(np.uint8)
        pwm = pwm_from_codes(codes, rng.uniform(0.001, 0.05, n))
        window = np.concatenate([codes, rng.integers(0, 4, 20)]).astype(np.uint8)
        pstar = emissions_batch(pwm[None], window[None], PARAMS)
        fwd = forward_batch(pstar, PARAMS)
        assert np.isfinite(fwd.loglik[0])
        assert fwd.loglik[0] < 0

    def test_perfect_match_likelihood_dominates(self):
        rng = np.random.default_rng(8)
        n = 40
        codes = rng.integers(0, 4, n).astype(np.uint8)
        pwm = pwm_from_codes(codes, np.full(n, 0.001))
        matched = codes.copy()
        garbage = (codes + 2) % 4
        pstar = emissions_batch(
            np.stack([pwm, pwm]), np.stack([matched, garbage]), PARAMS
        )
        fwd = forward_batch(pstar, PARAMS)
        assert fwd.loglik[0] > fwd.loglik[1] + 50

    def test_mode_validation(self):
        """``mode=`` is pinned to the semiglobal convention; the paper-literal
        global one is gone."""
        for mode in ("local", "global"):
            with pytest.raises(AlignmentError):
                forward_batch(np.ones((1, 2, 2)), PARAMS, mode=mode)
            with pytest.raises(AlignmentError):
                backward_batch(np.ones((1, 2, 2)), PARAMS, mode=mode)

    def test_empty_rejected(self):
        with pytest.raises(AlignmentError):
            forward_batch(np.ones((1, 0, 3)), PARAMS)
