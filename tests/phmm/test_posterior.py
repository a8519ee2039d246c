"""Tests for posterior masses and z-vector extraction."""

import numpy as np
import pytest

from repro.errors import AlignmentError
from repro.phmm.forward_backward import backward_batch, emissions_batch, forward_batch
from repro.phmm.model import PHMMParams
from repro.phmm.posterior import OCCUPANCY_FLOOR, posteriors_batch, z_vectors
from repro.phmm.pwm import pwm_from_codes

PARAMS = PHMMParams()


def compute_post(pwm, window):
    pstar = emissions_batch(pwm[None], window[None], PARAMS)
    fwd = forward_batch(pstar, PARAMS)
    bwd = backward_batch(pstar, PARAMS)
    return posteriors_batch(pstar, pwm[None], window[None], fwd, bwd, PARAMS)


def random_pair(rng, n=8, m=12):
    codes = rng.integers(0, 4, n).astype(np.uint8)
    pwm = pwm_from_codes(codes, rng.uniform(0.001, 0.2, n))
    window = rng.integers(0, 5, m).astype(np.uint8)
    return pwm, window


class TestPosteriorInvariants:
    def test_occupancy_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            post = compute_post(*random_pair(rng))
            assert (post.occupancy >= -1e-12).all()
            assert (post.occupancy <= 1 + 1e-9).all()

    def test_base_mass_plus_gap_equals_occupancy(self):
        rng = np.random.default_rng(1)
        post = compute_post(*random_pair(rng))
        total = post.base_mass.sum(axis=2) + post.gap_mass
        assert np.allclose(total, post.occupancy, atol=1e-10)

    def test_match_posterior_rows_sum_below_one(self):
        # each read base matches at most one window position
        rng = np.random.default_rng(2)
        post = compute_post(*random_pair(rng))
        row_sums = post.match_posterior.sum(axis=2)
        assert (row_sums <= 1 + 1e-9).all()

    def test_perfect_match_concentrates_mass(self):
        rng = np.random.default_rng(4)
        n = 20
        codes = rng.integers(0, 4, n).astype(np.uint8)
        pwm = pwm_from_codes(codes, np.full(n, 0.001))
        pad = 5
        window = np.concatenate(
            [rng.integers(0, 4, pad), codes, rng.integers(0, 4, pad)]
        ).astype(np.uint8)
        post = compute_post(pwm, window)
        # the read footprint gets nearly all the mass on the right bases
        for j in range(pad, pad + n):
            true_base = int(window[j])
            assert post.base_mass[0, j, true_base] > 0.9

    def test_nucleotide_resolution_uses_pwm(self):
        # Evidence splits by the PWM row alone: an uncertain base spreads
        # (carrying little information), a confident base concentrates, and
        # crucially the *genome* base never pulls mass toward itself — the
        # unbiasedness the paper claims (see posterior module docstring).
        window = np.array([2], dtype=np.uint8)  # genome says G

        unsure = pwm_from_codes(np.array([0], dtype=np.uint8), np.array([0.75]))
        post_u = compute_post(unsure, window)
        assert np.allclose(
            post_u.base_mass[0, 0], post_u.base_mass[0, 0, 0], atol=1e-9
        )  # all four channels equal: a Q1 base says nothing

        confident = pwm_from_codes(np.array([0], dtype=np.uint8), np.array([0.01]))
        post_c = compute_post(confident, window)
        # called A keeps its mass on A even though the genome says G
        assert post_c.base_mass[0, 0, 0] > 0.9 * post_c.occupancy[0, 0]
        assert post_c.base_mass[0, 0, 2] < 0.05 * post_c.occupancy[0, 0]

    def test_dead_pair_zeroed(self):
        # A pair whose likelihood underflows to zero must produce zero mass.
        pwm = np.zeros((2, 4))
        pwm[:, 0] = 1.0
        window = np.array([3, 3], dtype=np.uint8)
        emission = np.zeros((4, 5))
        emission[:, :4] = np.eye(4)  # zero prob for mismatches
        emission[:, 4] = 0.25
        params = PHMMParams(emission=emission)
        pstar = emissions_batch(pwm[None], window[None], params)
        # Gap chains can still consume the read, so check only that the
        # masses stay finite and non-negative.
        fwd = forward_batch(pstar, params)
        bwd = backward_batch(pstar, params)
        post = posteriors_batch(pstar, pwm[None], window[None], fwd, bwd, params)
        assert np.isfinite(post.base_mass).all()
        assert (post.base_mass >= 0).all()


class TestZVectors:
    def test_mass_policy_returns_raw(self):
        rng = np.random.default_rng(5)
        post = compute_post(*random_pair(rng))
        z = z_vectors(post, edge_policy="mass")
        assert z.shape == (1, 12, 5)
        assert np.allclose(z[0, :, :4], post.base_mass[0])
        assert np.allclose(z[0, :, 4], post.gap_mass[0])

    def test_paper_policy_normalises_interior(self):
        rng = np.random.default_rng(6)
        n = 20
        codes = rng.integers(0, 4, n).astype(np.uint8)
        pwm = pwm_from_codes(codes, np.full(n, 0.001))
        window = np.concatenate(
            [rng.integers(0, 4, 4), codes, rng.integers(0, 4, 4)]
        ).astype(np.uint8)
        post = compute_post(pwm, window)
        z = z_vectors(post, edge_policy="paper")
        interior = z[0, 6 : 4 + n - 2]
        assert np.allclose(interior.sum(axis=1), 1.0, atol=1e-6)

    def test_paper_policy_zeroes_below_floor(self):
        rng = np.random.default_rng(7)
        post = compute_post(*random_pair(rng))
        z = z_vectors(post, edge_policy="paper")
        low = post.occupancy[0] < OCCUPANCY_FLOOR
        assert np.allclose(z[0][low], 0.0)
        occ = post.occupancy[0][~low, None]
        np.testing.assert_allclose(z[0][~low], z_vectors(post)[0][~low] / occ)

    def test_bad_policy_rejected(self):
        rng = np.random.default_rng(8)
        post = compute_post(*random_pair(rng))
        with pytest.raises(AlignmentError):
            z_vectors(post, edge_policy="bogus")
