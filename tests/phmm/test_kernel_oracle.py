"""Batched kernels vs the naive single-pair oracles, matrix by matrix.

:mod:`tests.phmm.test_properties` pins likelihoods for single pairs; this
module pins the *batched* kernels (the pipeline's actual hot path) against
:mod:`tests.phmm.reference_impl` cell-for-cell: every pair in a B > 1 batch
must reproduce the naive unscaled forward/backward matrices after undoing
the per-row scaling (``f * exp(log_scale)``), including the degenerate
shapes N = 1, M = 1 and the empty batch B = 0.
The metrics counters are asserted alongside, tying the observability layer
to the same B*N*M geometry the numerics are verified over.

The lane-major kernels are additionally pinned to the frozen batch-major
kernels they replaced (:mod:`tests.phmm.parent_kernels`) within the stated
``KERNEL_RTOL``, and bit for bit in the two ways that matter for calls: a
pair's evidence does not depend on the tile it runs in, and the streamed
``align_batch*`` drivers deposit what the materialising public calls the
ledger's replay unrolls give.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AlignmentError
from repro.observability import scope
from repro.phmm import alignment
from repro.phmm.alignment import align_batch, align_batch_banded
from repro.phmm.banded import BandSpec
from repro.phmm.forward_backward import (
    backward_batch,
    emissions_batch,
    forward_batch,
)
from repro.phmm.model import PHMMParams
from repro.phmm.posterior import posteriors_batch, z_vectors
from repro.phmm.pwm import pwm_from_codes

from tests.phmm import parent_kernels
from tests.phmm.reference_impl import (
    backward_naive,
    band_edge_mass,
    emissions_naive,
    forward_naive,
)

#: The kernels' one boundary convention (``mode=`` is a pinned keyword).
MODES = ("semiglobal",)
#: The lane tile the streamed-driver tests cut their batches around (patched
#: in as ``LANE_TILE``): bits do not depend on it
#: (``test_a_pairs_bits_do_not_depend_on_its_tile``), tile boundaries do.
TILE = 192


def with_tile(test):
    return mock.patch.object(alignment, "LANE_TILE", TILE)(test)


@st.composite
def batch_case(draw, b_max=4, n_max=6, m_max=7):
    """A batch of B same-shape (pwm, window) pairs with varied qualities.

    min_value=1 for N and M still exercises the degenerate single-row /
    single-column DPs; B starts at 2 so every example is a *real* batch
    (B = 0 and B = 1 have dedicated tests below).
    """
    B = draw(st.integers(min_value=2, max_value=b_max))
    N = draw(st.integers(min_value=1, max_value=n_max))
    M = draw(st.integers(min_value=1, max_value=m_max))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    pwms = np.stack(
        [
            pwm_from_codes(
                rng.integers(0, 4, N).astype(np.uint8),
                rng.uniform(0.0, 0.74, N),
            )
            for _ in range(B)
        ]
    )
    windows = rng.integers(0, 5, (B, M)).astype(np.uint8)
    return pwms, windows


@st.composite
def params_strategy(draw):
    gap_open = draw(st.floats(min_value=0.005, max_value=0.2))
    gap_extend = draw(st.floats(min_value=0.05, max_value=0.9))
    return PHMMParams(gap_open=gap_open, gap_extend=gap_extend)


def _edge_case(pwm_rows, n, m, window_code=None):
    """B = 2 pairs of one hand-picked input class: every read position has
    the PWM row ``pwm_rows`` cycles through, the window is all
    ``window_code`` (4 = N, uniform emission) or a fixed ACGT ramp."""
    rows = np.asarray(pwm_rows, dtype=np.float64)
    pwm = rows[np.arange(n) % len(rows)]
    window = (
        np.arange(m) % 4 if window_code is None else np.full(m, window_code)
    ).astype(np.uint8)
    return np.stack([pwm, pwm[::-1]]), np.stack([window, window[::-1]])


_UNIFORM = [[0.25] * 4]
_ONE_HOT = np.eye(4)
#: Input classes the random strategy reaches rarely or never: uniform and
#: one-hot PWMs, all-N windows, a single read row, a single window column,
#: a read longer than its window.
EDGE_CASES = (
    _edge_case(_UNIFORM, 3, 5),
    _edge_case(_UNIFORM, 5, 8, window_code=4),
    _edge_case(_ONE_HOT, 6, 7),
    _edge_case(_ONE_HOT, 1, 6),
    _edge_case(_ONE_HOT, 5, 1),
    _edge_case(_UNIFORM, 1, 1),
    _edge_case(_ONE_HOT, 9, 4),
)


def edge_examples(test=None, **extra):
    """Pin every edge case as an explicit example."""

    def pin(test):
        for case in EDGE_CASES:
            test = example(case=case, params=PHMMParams(), **extra)(test)
        return test

    return pin if test is None else pin(test)


def unscale(scaled: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """Undo per-row scaling: true value is ``scaled[b,i,j] e^{ls[b,i]}``."""
    return scaled * np.exp(log_scale)[:, :, None]


@settings(max_examples=40, deadline=None)
@given(case=batch_case(), params=params_strategy())
@edge_examples
def test_forward_matrices_match_naive_per_pair(case, params):
    pwms, windows = case
    B, N, M = pwms.shape[0], pwms.shape[1], windows.shape[1]
    with scope() as reg:
        pstar = emissions_batch(pwms, windows, params)
        fwd = forward_batch(pstar, params)
    snap = reg.snapshot()
    assert snap.counters["phmm.pairs"] == B
    assert snap.counters["phmm.forward_cells"] == B * N * M

    fM = unscale(fwd.fM, fwd.log_scale)
    fGX = unscale(fwd.fGX, fwd.log_scale)
    fGY = unscale(fwd.fGY, fwd.log_scale)
    for b in range(B):
        nM, nGX, nGY, like = forward_naive(pstar[b], params)
        np.testing.assert_allclose(fM[b], nM, rtol=1e-9, atol=1e-300)
        np.testing.assert_allclose(fGX[b], nGX, rtol=1e-9, atol=1e-300)
        np.testing.assert_allclose(fGY[b], nGY, rtol=1e-9, atol=1e-300)
        if like > 0:
            assert np.isclose(fwd.loglik[b], np.log(like), rtol=1e-9)
        else:
            assert fwd.loglik[b] == -np.inf


@settings(max_examples=40, deadline=None)
@given(case=batch_case(), params=params_strategy())
@edge_examples
def test_backward_matrices_match_naive_per_pair(case, params):
    pwms, windows = case
    B, N, M = pwms.shape[0], pwms.shape[1], windows.shape[1]
    with scope() as reg:
        pstar = emissions_batch(pwms, windows, params)
        bwd = backward_batch(pstar, params)
    assert reg.snapshot().counters["phmm.backward_cells"] == B * N * M

    bM = unscale(bwd.bM, bwd.log_scale)
    bGX = unscale(bwd.bGX, bwd.log_scale)
    bGY = unscale(bwd.bGY, bwd.log_scale)
    for b in range(B):
        nM, nGX, nGY = backward_naive(pstar[b], params)
        np.testing.assert_allclose(bM[b], nM, rtol=1e-9, atol=1e-300)
        np.testing.assert_allclose(bGX[b], nGX, rtol=1e-9, atol=1e-300)
        np.testing.assert_allclose(bGY[b], nGY, rtol=1e-9, atol=1e-300)


@settings(max_examples=25, deadline=None)
@given(case=batch_case(b_max=3, n_max=5, m_max=5))
def test_emissions_match_naive_per_pair(case):
    pwms, windows = case
    params = PHMMParams()
    pstar = emissions_batch(pwms, windows, params)
    for b in range(pwms.shape[0]):
        np.testing.assert_allclose(
            pstar[b], emissions_naive(pwms[b], windows[b], params), rtol=1e-12
        )


def _solo_band(band, n, m):
    return None if band is None else BandSpec(n=n, m=m, center=band[0], width=band[1])


def _random_case(b, n, m, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, (b, n)).astype(np.uint8)
    pwms = np.stack([pwm_from_codes(c, rng.uniform(0.0, 0.5, n)) for c in codes])
    return pwms, rng.integers(0, 5, (b, m)).astype(np.uint8)


@settings(max_examples=30, deadline=None)
@given(
    case=batch_case(b_max=7),
    params=params_strategy(),
    band=st.one_of(st.none(), st.tuples(st.integers(-2, 6), st.integers(1, 3))),
)
@edge_examples(band=None)
@edge_examples(band=(1, 1))
@example(case=_random_case(5, 6, 9, 11), params=PHMMParams(), band=None)
@example(case=_random_case(5, 6, 9, 12), params=PHMMParams(), band=(2, 2))
@example(case=_random_case(7, 4, 7, 13), params=PHMMParams(), band=(1, 1))
def test_batching_is_not_load_bearing(case, params, band):
    """Each pair's result — forward matrices and the evidence the streamed
    drivers deposit — is identical whether aligned in a batch or alone, and
    wherever the lane-tile boundaries fall: under the 2-lane tile here, 5 and
    7 pairs are three and four tiles sharing one workspace, the last one
    narrower and on its own."""
    pwms, windows = case
    B, N, M = pwms.shape[0], pwms.shape[1], windows.shape[1]
    band = _solo_band(band, N, M)
    pstar = emissions_batch(pwms, windows, params)
    batched = forward_batch(pstar, params, band=band)
    with mock.patch.object(alignment, "LANE_TILE", 2):
        tiled = alignment._align_streamed(
            pwms, windows, params, "mass", band, want_edge=band is not None
        )
    for b in range(B):
        solo = forward_batch(pstar[b : b + 1], params, band=band)
        np.testing.assert_array_equal(batched.fM[b], solo.fM[0])
        np.testing.assert_array_equal(batched.log_scale[b], solo.log_scale[0])
        np.testing.assert_array_equal(batched.loglik[b], solo.loglik[0])
        alone = alignment._align_streamed(
            pwms[b : b + 1], windows[b : b + 1], params, "mass", band,
            want_edge=band is not None,
        )
        for got, want in zip(tiled, alone):  # z, loglik, band-edge mass
            if want is not None:
                np.testing.assert_array_equal(got[b], want[0])


def _bands(n, m):
    """No band, a covering band, the pipeline's ``band_w = 10`` at a pad-8
    seed diagonal, a narrow one, and bands that leave the matrix on the
    left (low rows) and on the right (high rows)."""
    return {
        "none": None,
        "covering": BandSpec(n=n, m=m, center=m // 2, width=n + m),
        "w10": BandSpec(n=n, m=m, center=min(8, m - 1), width=10),
        "narrow": BandSpec(n=n, m=m, center=min(1, m - 1), width=1),
        "off_left": BandSpec(n=n, m=m, center=-n, width=2),
        "off_right": BandSpec(n=n, m=m, center=m, width=2),
    }


def _embedded_case(b, n, seed, pad=8):
    """Reads drawn from their own windows at ``pad`` with 3% substitutions:
    the shape of a real candidate pair, ``loglik`` near the read's length."""
    rng = np.random.default_rng(seed)
    windows = rng.integers(0, 4, (b, n + 2 * pad)).astype(np.uint8)
    codes = windows[:, pad : pad + n].copy()
    flip = rng.random(codes.shape) < 0.03
    codes[flip] = (codes[flip] + 1) % 4
    pwms = np.stack([pwm_from_codes(c, rng.uniform(0.0, 0.5, n)) for c in codes])
    return pwms, windows


#: EDGE_CASES are B = 2; the random cases span lane-tile boundaries (under
#: the test's 2-lane tile: 3, 4 and 98 tiles, the last a single pair); the
#: embedded ones are 30, 62 and 150 bp reads.
ORACLE_CASES = EDGE_CASES + (
    _random_case(5, 12, 17, 1),
    _random_case(TILE + 3, 7, 9, 2),
    _random_case(7, 5, 8, 3),
    _embedded_case(3, 30, 4),
    _embedded_case(3, 62, 5),
    _embedded_case(3, 150, 6),
)

#: How far the kernels may sit from the frozen oracle.  The oracle solves
#: the ``G_Y`` recurrence with a first-order IIR filter and carries each row
#: scale as ``ln(max)`` summed row by row; the compiled kernels scan in
#: order and carry exact power-of-two exponents, so only the emissions stay
#: bit-equal.  Worst measured over 30/62/150 bp batches: 1.0e-13 relative
#: on z and 7.1e-14 on loglik for reads embedded in their windows,
#: 3.6e-13 / 2.3e-13 for 150 bp reads against unrelated windows (loglik
#: ~ -240) — 2.8x headroom at worst, 10x on real pairs.
KERNEL_RTOL = 1e-12
#: z cells at or below this are compared absolutely, at the same bound.
Z_FLOOR = 1e-12


def _assert_close_relative(got, want, err_msg=""):
    """``rtol = KERNEL_RTOL`` where ``|want| > Z_FLOOR``, ``atol = Z_FLOOR``
    elsewhere."""
    big = np.abs(want) > Z_FLOOR
    np.testing.assert_allclose(got[big], want[big], rtol=KERNEL_RTOL, atol=0, err_msg=err_msg)
    np.testing.assert_allclose(got[~big], want[~big], rtol=0, atol=Z_FLOOR, err_msg=err_msg)


@pytest.mark.parametrize(
    "band_kind", ("none", "covering", "w10", "narrow", "off_left", "off_right")
)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_lane_major_kernels_reproduce_parent_bitwise(case, mode, band_kind):
    """The emissions bit for bit, every other array the batch-major parent
    kernels produced within ``KERNEL_RTOL``: the DP matrices unscaled
    (``x * exp(log_scale)``) and ``loglik`` absolutely, z, the match
    posterior, occupancy and band-edge mass relatively."""
    pwms, windows = ORACLE_CASES[case]
    params = PHMMParams()
    n, m = pwms.shape[1], windows.shape[1]
    band = _bands(n, m)[band_kind]

    want_pstar = parent_kernels.emissions(pwms, windows, params)
    want_f = parent_kernels.forward(want_pstar, params, mode, band)
    want_b = parent_kernels.backward(want_pstar, params, mode, band)
    want_p = parent_kernels.posteriors(want_pstar, pwms, want_f, want_b)

    pstar = emissions_batch(pwms, windows, params)
    fwd = forward_batch(pstar, params, mode=mode, band=band)
    bwd = backward_batch(pstar, params, mode=mode, band=band)
    post = posteriors_batch(pstar, pwms, windows, fwd, bwd, params)

    np.testing.assert_array_equal(pstar, want_pstar)
    passes = ((fwd, want_f, ("fM", "fGX", "fGY")), (bwd, want_b, ("bM", "bGX", "bGY")))
    for got, want, names in passes:
        for name in names:
            np.testing.assert_allclose(
                unscale(getattr(got, name), got.log_scale),
                unscale(want[name], want["log_scale"]),
                rtol=0, atol=KERNEL_RTOL, err_msg=name,
            )
    np.testing.assert_allclose(fwd.loglik, want_f["loglik"], rtol=0, atol=KERNEL_RTOL)
    _assert_close_relative(post.match_posterior, want_p["match_posterior"], "match")
    want_z = np.concatenate(
        [want_p["base_mass"], want_p["gap_mass"][:, :, None]], axis=2
    )
    _assert_close_relative(z_vectors(post), want_z, "z")
    _assert_close_relative(post.occupancy, want_p["occupancy"], "occupancy")
    if band is not None:
        _assert_close_relative(
            band_edge_mass(post.match_posterior, band),
            parent_kernels.band_edge(want_p["match_posterior"], band),
            "band edge",
        )
    # The streamed driver, its tiles reusing one workspace, deposits the
    # materialised result bit for bit.
    with mock.patch.object(alignment, "LANE_TILE", 2):
        z, loglik, edge = alignment._align_streamed(
            pwms, windows, params, "mass", band, want_edge=band is not None
        )
    np.testing.assert_array_equal(z, z_vectors(post))
    np.testing.assert_array_equal(loglik, fwd.loglik)
    if band is not None:
        np.testing.assert_array_equal(edge, band_edge_mass(post.match_posterior, band))


#: Tile widths a pair's evidence must not notice: the smallest batches
#: (a single pair, a pool chunk's last batch), a ``pool2_warm`` batch, the
#: tiles of a 512-pair batch under earlier tile constants, each constant and
#: one past it.
LANE_WIDTHS = (1, 2, 3, 4, 7, 97, 171, 192, 193, 256, 257)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(1, 9),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
    where=st.floats(0.0, 1.0),
)
@example(n=6, m=10, seed=0, where=0.5)
def test_a_pairs_bits_do_not_depend_on_its_tile(n, m, seed, where):
    """The bitwise contract the pool == serial identity rests on: one pair's
    ``(z, loglik, band-edge mass)`` bytes are the same alone and at any
    position of a tile of any width, full and banded — every kernel step is
    elementwise per lane."""
    pwms, windows = _random_case(max(LANE_WIDTHS), n, m, seed)
    params = PHMMParams()
    for band in (None, BandSpec(n=n, m=m, center=min(1, m - 1), width=2)):
        edge = band is not None
        alone = alignment._align_streamed(
            pwms[:1], windows[:1], params, "mass", band, want_edge=edge
        )
        for width in LANE_WIDTHS:
            at = int(where * (width - 1))
            # Pair 0 at lane ``at`` among ``width - 1`` others.
            order = np.roll(np.arange(width), at)
            with mock.patch.object(alignment, "LANE_TILE", width):
                tiled = alignment._align_streamed(
                    pwms[order], windows[order], params, "mass", band, want_edge=edge
                )
            for got, want in zip(tiled, alone):
                if want is not None:
                    assert got[at].tobytes() == want[0].tobytes(), (band, width)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("b", (1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3, 2 * TILE + 5))
@with_tile
def test_streamed_alignment_equals_unrolled_public_calls(b, mode):
    """The ring and the kept store agree: ``align_batch`` deposits exactly
    what ``emissions -> forward -> backward -> posteriors -> z_vectors`` and
    ``* valid`` give, and ``align_batch_banded`` the same per bucket —
    whatever the batch size is against the lane tile."""
    pwms, windows = _random_case(b, 6, 10, seed=b)
    params = PHMMParams()
    valid = np.ones(windows.shape, dtype=bool)
    valid[::2, :3] = False
    for band in (None, BandSpec(n=6, m=10, center=2, width=2)):
        pstar = emissions_batch(pwms, windows, params)
        fwd = forward_batch(pstar, params, mode=mode, band=band)
        bwd = backward_batch(pstar, params, mode=mode, band=band)
        post = posteriors_batch(pstar, pwms, windows, fwd, bwd, params)
        want_z = z_vectors(post, edge_policy="mass") * valid[:, :, None]
        if band is None:
            got = align_batch(pwms, windows, params, mode=mode, valid=valid)
        else:
            got = align_batch_banded(
                pwms, windows, params, np.full(b, band.center), band.width,
                adaptive=False, mode=mode, valid=valid,
            )
        np.testing.assert_array_equal(got.z, want_z)
        np.testing.assert_array_equal(got.loglik, fwd.loglik)
        # ... and the band-edge audit reads the same cells in the same order.
        if band is not None:
            edge = alignment._align_streamed(
                pwms, windows, params, "mass", band, want_edge=True
            )[2]
            np.testing.assert_array_equal(
                edge, band_edge_mass(post.match_posterior, band)
            )


@with_tile
def test_streamed_paper_policy_equals_unrolled():
    """``edge_policy="paper"`` is the one streamed caller of occupancy."""
    pwms, windows = _random_case(TILE + 2, 6, 10, seed=3)
    params = PHMMParams()
    pstar = emissions_batch(pwms, windows, params)
    fwd = forward_batch(pstar, params)
    bwd = backward_batch(pstar, params)
    post = posteriors_batch(pstar, pwms, windows, fwd, bwd, params)
    got = align_batch(pwms, windows, params, edge_policy="paper")
    np.testing.assert_array_equal(got.z, z_vectors(post, edge_policy="paper"))


@pytest.mark.parametrize("mode", MODES)
def test_dead_pairs_deposit_nothing_when_streamed(mode):
    """A band that leaves the matrix before the last read row kills the
    pair (``loglik = -inf``); its streamed z is exactly zero, not NaN."""
    pwms, windows = _random_case(3, 8, 14, seed=4)
    out = align_batch_banded(
        pwms, windows, PHMMParams(), np.full(3, 10), band_w=2,
        adaptive=False, mode=mode,
    )
    assert np.all(np.isneginf(out.loglik))
    assert np.all(out.z == 0.0)


class TestDegenerateShapes:
    def test_empty_batch_forward_backward(self):
        params = PHMMParams()
        pstar = np.zeros((0, 3, 5))
        fwd = forward_batch(pstar, params)
        bwd = backward_batch(pstar, params)
        assert fwd.fM.shape == fwd.fGX.shape == fwd.fGY.shape == (0, 4, 6)
        assert fwd.loglik.shape == (0,)
        assert bwd.bM.shape == (0, 4, 6)

    def test_empty_batch_align(self):
        params = PHMMParams()
        pwms = np.zeros((0, 3, 4))
        windows = np.zeros((0, 5), dtype=np.uint8)
        outcome = align_batch(pwms, windows, params)
        assert outcome.z.shape == (0, 5, 5)
        assert outcome.loglik.shape == (0,)

    def test_empty_batch_counts_zero_cells(self):
        with scope() as reg:
            forward_batch(np.zeros((0, 3, 5)), PHMMParams())
        snap = reg.snapshot()
        assert snap.counters["phmm.pairs"] == 0
        assert snap.counters["phmm.forward_cells"] == 0
        assert snap.counters["phmm.batches"] == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_single_cell_problem_matches_naive(self, mode):
        """N = M = 1: one match cell; the smallest non-trivial DP."""
        params = PHMMParams()
        rng = np.random.default_rng(5)
        pwms = np.stack(
            [pwm_from_codes(np.array([c], dtype=np.uint8), np.array([0.1]))
             for c in range(3)]
        )
        windows = rng.integers(0, 5, (3, 1)).astype(np.uint8)
        pstar = emissions_batch(pwms, windows, params)
        fwd = forward_batch(pstar, params, mode=mode)
        for b in range(3):
            *_, like = forward_naive(pstar[b], params)
            assert np.isclose(np.exp(fwd.loglik[b]), like, rtol=1e-9)

    @pytest.mark.parametrize("bad", [(2, 0, 5), (2, 5, 0)])
    def test_zero_length_read_or_window_rejected(self, bad):
        with pytest.raises(AlignmentError):
            forward_batch(np.zeros(bad), PHMMParams())
        with pytest.raises(AlignmentError):
            backward_batch(np.zeros(bad), PHMMParams())
