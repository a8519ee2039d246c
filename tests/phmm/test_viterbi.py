"""Tests for Viterbi single-best alignment."""

import numpy as np
import pytest

from repro.errors import AlignmentError
from repro.phmm.forward_backward import emissions_batch, forward_batch
from repro.phmm.model import PHMMParams
from repro.phmm.pwm import pwm_from_codes
from repro.phmm.viterbi import viterbi_align

PARAMS = PHMMParams()


def emis(pwm, window):
    return emissions_batch(pwm[None], window[None], PARAMS)[0]


class TestViterbi:
    def test_perfect_match_recovers_diagonal(self):
        rng = np.random.default_rng(0)
        n, pad = 15, 4
        codes = rng.integers(0, 4, n).astype(np.uint8)
        pwm = pwm_from_codes(codes, np.full(n, 0.001))
        window = np.concatenate(
            [rng.integers(0, 4, pad), codes, rng.integers(0, 4, pad)]
        ).astype(np.uint8)
        result = viterbi_align(emis(pwm, window), PARAMS)
        assert len(result.pairs) == n
        # 1-based pairs along the true diagonal
        assert result.pairs[0] == (1, pad + 1)
        assert result.pairs[-1] == (n, pad + n)

    def test_score_never_exceeds_total_likelihood(self):
        rng = np.random.default_rng(1)
        for _ in range(12):
            n, m = int(rng.integers(2, 10)), int(rng.integers(2, 12))
            codes = rng.integers(0, 4, n).astype(np.uint8)
            pwm = pwm_from_codes(codes, rng.uniform(0.001, 0.3, n))
            window = rng.integers(0, 5, m).astype(np.uint8)
            pstar = emis(pwm, window)
            v = viterbi_align(pstar, PARAMS)
            fwd = forward_batch(pstar[None], PARAMS)
            assert v.score <= fwd.loglik[0] + 1e-9

    def test_deletion_recovered(self):
        # Window = read with 2 extra genome bases in the middle: the best
        # path must skip them (pairs jump by 3 in j at one spot).
        rng = np.random.default_rng(2)
        n = 20
        codes = rng.integers(0, 4, n).astype(np.uint8)
        window = np.concatenate(
            [codes[:10], rng.integers(0, 4, 2).astype(np.uint8), codes[10:]]
        )
        pwm = pwm_from_codes(codes, np.full(n, 0.001))
        result = viterbi_align(emis(pwm, window), PARAMS)
        assert len(result.pairs) == n
        j_steps = np.diff([j for _, j in result.pairs])
        assert (j_steps >= 1).all()
        assert j_steps.max() == 3

    def test_insertion_recovered(self):
        # Read has 2 extra bases relative to the window: i jumps by 3.
        rng = np.random.default_rng(3)
        m = 20
        window = rng.integers(0, 4, m).astype(np.uint8)
        codes = np.concatenate(
            [window[:10], rng.integers(0, 4, 2).astype(np.uint8), window[10:]]
        ).astype(np.uint8)
        pwm = pwm_from_codes(codes, np.full(codes.size, 0.001))
        result = viterbi_align(emis(pwm, window), PARAMS)
        i_steps = np.diff([i for i, _ in result.pairs])
        assert i_steps.max() == 3

    def test_validation(self):
        with pytest.raises(AlignmentError):
            viterbi_align(np.ones(3), PARAMS)
