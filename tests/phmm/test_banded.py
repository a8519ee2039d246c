"""Band tests: geometry, exactness, convergence, escape hatch.

The band is a pure restriction of the DP lattice, so every guarantee is
relative to the unbanded fill (``band=None``): bitwise equality when the band
covers the matrix, monotone convergence of the likelihood as the band widens, and the
adaptive escape hatch recovering full-kernel results where the band
assumption breaks (large indels shifting the alignment off its seed
diagonal).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlignmentError, SanitizerError
from repro.observability import scope
from repro.phmm import sanitize
from repro.phmm.alignment import align_batch, align_batch_banded
from repro.phmm.banded import BandSpec
from repro.phmm.forward_backward import (
    backward_batch,
    emissions_batch,
    forward_batch,
)
from repro.phmm.model import PHMMParams
from repro.phmm.posterior import posteriors_batch
from repro.phmm.pwm import pwm_from_codes
from tests.phmm.reference_impl import band_edge_mass

PARAMS = PHMMParams()
#: The kernels' one boundary convention (``mode=`` is a pinned keyword).
MODES = ("semiglobal",)


def random_batch(rng, b=3, n=8, m=14):
    codes = rng.integers(0, 4, (b, n)).astype(np.uint8)
    errs = rng.uniform(0.001, 0.3, (b, n))
    pwms = np.stack([pwm_from_codes(c, e) for c, e in zip(codes, errs)])
    windows = rng.integers(0, 5, (b, m)).astype(np.uint8)
    return pwms, windows


def indel_case(shift=6, n=30, pad=8, seed=0):
    """A read whose tail aligns ``shift`` diagonals off its seed diagonal:
    the window deletes ``shift`` bases mid-read relative to the read."""
    rng = np.random.default_rng(seed)
    read = rng.integers(0, 4, n).astype(np.uint8)
    half = n // 2
    window = np.concatenate(
        [
            rng.integers(0, 4, pad).astype(np.uint8),
            read[:half],
            rng.integers(0, 4, shift).astype(np.uint8),
            read[half:],
            rng.integers(0, 4, pad).astype(np.uint8),
        ]
    )
    pwm = pwm_from_codes(read, np.full(n, 0.01))
    return pwm[None], window[None].astype(np.uint8), pad


class TestBandSpec:
    def test_row_bounds_clip_to_matrix(self):
        band = BandSpec(n=5, m=10, center=0, width=2)
        assert band.row_bounds(0) == (0, 2)
        assert band.row_bounds(5) == (3, 7)
        wide = BandSpec(n=5, m=10, center=5, width=50)
        assert wide.row_bounds(0) == (0, 10)
        assert not wide.outside_mask().any()

    def test_band_can_slide_off_matrix(self):
        band = BandSpec(n=10, m=6, center=5, width=1)
        lo, hi = band.row_bounds(10)
        assert lo > hi  # empty row: band left the matrix
        assert band.outside_mask().any()

    def test_n_cells_matches_mask(self):
        band = BandSpec(n=7, m=11, center=3, width=2)
        outside = band.outside_mask()
        # n_cells counts the DP rows 1..n; row 0 is initialisation only
        assert band.n_cells() == int((~outside)[1:].sum())

    def test_interior_edges_exclude_matrix_boundary(self):
        band = BandSpec(n=6, m=8, center=0, width=2)
        lo_edge, hi_edge = band.interior_edges(0)
        assert lo_edge == -1  # clipped by column 0: not a band-made edge
        assert hi_edge == 2


class TestExactness:
    """``band=None`` is bitwise a band covering the whole matrix."""

    @pytest.mark.parametrize("mode", MODES)
    def test_forward_backward_bitwise(self, mode):
        rng = np.random.default_rng(7)
        pwms, windows = random_batch(rng)
        n, m = pwms.shape[1], windows.shape[1]
        pstar = emissions_batch(pwms, windows, PARAMS)
        band = BandSpec(n=n, m=m, center=m // 2, width=n + m)
        assert not band.outside_mask().any()
        fwd_b = forward_batch(pstar, PARAMS, mode=mode, band=band)
        fwd_f = forward_batch(pstar, PARAMS, mode=mode)
        assert np.array_equal(fwd_b.loglik, fwd_f.loglik)
        assert np.array_equal(fwd_b.fM, fwd_f.fM)
        bwd_b = backward_batch(pstar, PARAMS, mode=mode, band=band)
        bwd_f = backward_batch(pstar, PARAMS, mode=mode)
        assert np.array_equal(bwd_b.bM, bwd_f.bM)

    def test_cell_counters_full_vs_banded(self):
        """A full pass charges B*N*M to cells_full, a banded pass charges
        B*band.n_cells() to cells_banded; each also charges its own
        forward/backward counter."""
        rng = np.random.default_rng(8)
        pwms, windows = random_batch(rng)  # 3 x 8 x 14
        pstar = emissions_batch(pwms, windows, PARAMS)
        band = BandSpec(n=8, m=14, center=3, width=2)
        assert band.n_cells() == 40
        with scope() as reg:
            forward_batch(pstar, PARAMS)
            backward_batch(pstar, PARAMS)
            full = reg.snapshot().counters
        assert full == {
            "phmm.batches": 1,
            "phmm.pairs": 3,
            "phmm.forward_cells": 336,
            "phmm.backward_cells": 336,
            "phmm.cells_full": 672,
        }
        with scope() as reg:
            forward_batch(pstar, PARAMS, band=band)
            backward_batch(pstar, PARAMS, band=band)
            banded = reg.snapshot().counters
        assert banded == {
            "phmm.batches": 1,
            "phmm.pairs": 3,
            "phmm.forward_cells": 120,
            "phmm.backward_cells": 120,
            "phmm.cells_banded": 240,
        }

    def test_align_batch_banded_matches_full_when_covering(self):
        rng = np.random.default_rng(3)
        pwms, windows = random_batch(rng)
        m = windows.shape[1]
        full = align_batch(pwms, windows, PARAMS)
        banded = align_batch_banded(
            pwms,
            windows,
            PARAMS,
            centers=np.full(pwms.shape[0], m // 2, dtype=np.int64),
            band_w=pwms.shape[1] + m,
        )
        assert np.array_equal(banded.loglik, full.loglik)
        assert np.array_equal(banded.z, full.z)


class TestConvergence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_loglik_monotone_and_convergent_in_band_width(self, seed):
        rng = np.random.default_rng(seed)
        pwms, windows = random_batch(rng, b=2, n=6, m=10)
        n, m = pwms.shape[1], windows.shape[1]
        pstar = emissions_batch(pwms, windows, PARAMS)
        full = forward_batch(pstar, PARAMS).loglik
        prev = np.full(pwms.shape[0], -np.inf)
        for width in range(1, n + m + 1):
            band = BandSpec(n=n, m=m, center=m // 2, width=width)
            ll = forward_batch(pstar, PARAMS, band=band).loglik
            # wider band = superset of alignment paths: mass only grows
            assert np.all(ll >= prev - 1e-9)
            assert np.all(ll <= full + 1e-9)
            prev = ll
        assert np.allclose(prev, full)


class TestEscapeHatch:
    def test_large_indel_escapes_to_full_kernels(self):
        pwms, windows, pad = indel_case(shift=6)
        centers = np.array([pad], dtype=np.int64)
        full = align_batch(pwms, windows, PARAMS)
        with scope() as reg:
            banded = align_batch_banded(
                pwms, windows, PARAMS, centers, band_w=2, tolerance=1e-4
            )
            counters = reg.snapshot().counters
        assert counters.get("phmm.band_escapes", 0) == 1
        assert np.array_equal(banded.loglik, full.loglik)
        assert np.array_equal(banded.z, full.z)

    def test_fixed_mode_never_escapes(self):
        """``adaptive=False`` is the band alone: what the escapes repair."""
        pwms, windows, pad = indel_case(shift=6)
        centers = np.array([pad], dtype=np.int64)
        full = align_batch(pwms, windows, PARAMS)
        with scope() as reg:
            banded = align_batch_banded(
                pwms, windows, PARAMS, centers, band_w=2, adaptive=False
            )
            counters = reg.snapshot().counters
        assert counters.get("phmm.band_escapes", 0) == 0
        # the narrow band misses the shifted tail: likelihood strictly below
        assert banded.loglik[0] < full.loglik[0]

    def test_well_centered_read_stays_banded(self):
        pwms, windows, pad = indel_case(shift=0)
        centers = np.array([pad], dtype=np.int64)
        with scope() as reg:
            align_batch_banded(
                pwms, windows, PARAMS, centers, band_w=6, tolerance=1e-4
            )
            counters = reg.snapshot().counters
        assert counters.get("phmm.band_escapes", 0) == 0
        assert counters["phmm.cells_banded"] > 0
        assert "phmm.cells_full" not in counters

    def test_group_gate_suppresses_uncompetitive_escapes(self):
        # pair 0: clean, well-centred; pair 1: same read vs a junk window
        # whose band-edge mass is high but whose likelihood is hopeless.
        pwms, windows, pad = indel_case(shift=0, seed=1)
        rng = np.random.default_rng(9)
        junk = rng.integers(0, 4, windows.shape[1]).astype(np.uint8)
        pwms2 = np.concatenate([pwms, pwms])
        windows2 = np.stack([windows[0], junk])
        centers = np.full(2, pad, dtype=np.int64)
        groups = np.zeros(2, dtype=np.int64)
        with scope() as reg:
            out = align_batch_banded(
                pwms2,
                windows2,
                PARAMS,
                centers,
                band_w=2,
                tolerance=0.0,  # everything's edge mass "exceeds" tolerance
                groups=groups,
                escape_min_ratio=1e-4,
            )
            gated = reg.snapshot().counters.get("phmm.band_escapes", 0)
        # only the competitive pair(s) may escape; the junk window must not
        # unless it is competitive with the true alignment (it is not)
        assert out.loglik[1] < out.loglik[0] + np.log(1e-4)
        with scope() as reg:
            align_batch_banded(
                pwms2,
                windows2,
                PARAMS,
                centers,
                band_w=2,
                tolerance=0.0,
            )
            ungated = reg.snapshot().counters.get("phmm.band_escapes", 0)
        assert ungated == 2
        assert gated < ungated

    def test_band_leaving_the_matrix_escapes(self):
        """A band whose upper rows lie right of the last window column: the
        banded pairs are dead and go to the full kernels (the edge audit
        used to index past the matrix and raise IndexError instead)."""
        rng = np.random.default_rng(13)
        pwms, windows = random_batch(rng, b=2)  # 8 x 14
        band = BandSpec(n=8, m=14, center=10, width=2)
        assert 0 < band.n_cells() and band.row_bounds(8)[0] > 14
        full = align_batch(pwms, windows, PARAMS)
        with scope() as reg:
            out = align_batch_banded(pwms, windows, PARAMS, np.full(2, 10), band_w=2)
            assert reg.snapshot().counters["phmm.band_escapes"] == 2
        assert np.array_equal(out.loglik, full.loglik)
        assert np.array_equal(out.z, full.z)

    def test_edge_mass_small_for_wide_band(self):
        rng = np.random.default_rng(11)
        pwms, windows = random_batch(rng, b=2)
        n, m = pwms.shape[1], windows.shape[1]
        pstar = emissions_batch(pwms, windows, PARAMS)
        band = BandSpec(n=n, m=m, center=m // 2, width=n + m)
        fwd = forward_batch(pstar, PARAMS, band=band)
        bwd = backward_batch(pstar, PARAMS, band=band)
        post = posteriors_batch(pstar, pwms, windows, fwd, bwd, PARAMS)
        edge = band_edge_mass(post.match_posterior, band)
        assert np.all(edge == 0.0)  # covering band has no interior edges


class TestSanitizer:
    def test_check_band_passes_on_banded_output(self):
        rng = np.random.default_rng(5)
        pwms, windows = random_batch(rng)
        n, m = pwms.shape[1], windows.shape[1]
        pstar = emissions_batch(pwms, windows, PARAMS)
        band = BandSpec(n=n, m=m, center=m // 2, width=3)
        sanitize.enable()
        try:
            forward_batch(pstar, PARAMS, band=band)
            backward_batch(pstar, PARAMS, band=band)
        finally:
            sanitize.disable()

    def test_check_band_rejects_mass_outside_band(self):
        band = BandSpec(n=3, m=5, center=2, width=1)
        shape = (1, 4, 6)
        sM = np.zeros(shape)
        sM[0][~band.outside_mask()] = 0.5
        leaky = sM.copy()
        out_i, out_j = np.argwhere(band.outside_mask())[0]
        leaky[0, out_i, out_j] = 0.1  # mass beyond the band edge
        zeros = np.zeros(shape)
        sanitize.check_band(sM, zeros, zeros, band)  # clean: no raise
        with pytest.raises(SanitizerError):
            sanitize.check_band(leaky, zeros, zeros, band)


class TestBatchedBuckets:
    """Batched-banded behaviour across mixed geometries and escapes.

    Row scales are per pair, so every pair's result is independent of its
    batch-mates bit for bit, and a batch mixing several band centers —
    including pairs that escape to the unbanded fill — must be byte-identical
    to running each pair through the serial per-pair path alone.
    """

    def test_mixed_band_geometries_one_batch(self):
        """Three centers -> three buckets with differently clipped bands,
        one call; each pair byte-identical to its solo run."""
        rng = np.random.default_rng(21)
        pwms, windows = random_batch(rng, b=6, n=8, m=14)
        m = windows.shape[1]
        centers = np.array([0, 0, 5, 5, m - 2, m - 2], dtype=np.int64)
        batched = align_batch_banded(
            pwms, windows, PARAMS, centers, band_w=3, adaptive=False
        )
        for b in range(6):
            solo = align_batch_banded(
                pwms[b : b + 1],
                windows[b : b + 1],
                PARAMS,
                centers[b : b + 1],
                band_w=3,
                adaptive=False,
            )
            assert np.array_equal(batched.loglik[b], solo.loglik[0])
            assert np.array_equal(batched.z[b], solo.z[0])

    def test_per_bucket_cells_accounting(self):
        """Each bucket charges its own clipped band geometry, not a shared
        nominal width."""
        rng = np.random.default_rng(22)
        pwms, windows = random_batch(rng, b=4, n=8, m=14)
        n, m = pwms.shape[1], windows.shape[1]
        centers = np.array([0, 0, 9, 9], dtype=np.int64)
        expected = 0
        for c in (0, 9):
            band = BandSpec(n=n, m=m, center=c, width=2)
            expected += 2 * 2 * band.n_cells()  # 2 pairs x fwd+bwd passes
        with scope() as reg:
            align_batch_banded(
                pwms, windows, PARAMS, centers, band_w=2, adaptive=False
            )
        assert reg.snapshot().counters["phmm.cells_banded"] == expected

    def test_escape_inside_batch_is_byte_identical_to_serial(self):
        """One escaping pair among well-banded mates: every pair (escaped or
        not) matches its serial per-pair outcome bitwise."""
        esc_pwms, esc_windows, esc_pad = indel_case(shift=6, pad=8, seed=3)
        # same window width (2*11 + 30 = 2*8 + 30 + 6), different center:
        # the clean pairs land in their own bucket, as in the real pipeline
        ok_pwms, ok_windows, ok_pad = indel_case(shift=0, pad=11, seed=5)
        assert esc_windows.shape[1] == ok_windows.shape[1]
        pwms = np.concatenate([ok_pwms, esc_pwms, ok_pwms])
        windows = np.concatenate([ok_windows, esc_windows, ok_windows])
        centers = np.array([ok_pad, esc_pad, ok_pad], dtype=np.int64)
        with scope() as reg:
            batched = align_batch_banded(
                pwms, windows, PARAMS, centers, band_w=2, tolerance=1e-4
            )
            n_escapes = reg.snapshot().counters.get("phmm.band_escapes", 0)
        assert n_escapes == 1
        full = align_batch(esc_pwms, esc_windows, PARAMS)
        assert np.array_equal(batched.loglik[1], full.loglik[0])
        assert np.array_equal(batched.z[1], full.z[0])
        for b in range(3):
            solo = align_batch_banded(
                pwms[b : b + 1],
                windows[b : b + 1],
                PARAMS,
                centers[b : b + 1],
                band_w=2,
                tolerance=1e-4,
            )
            assert np.array_equal(batched.loglik[b], solo.loglik[0])
            assert np.array_equal(batched.z[b], solo.z[0])


class TestEmptyBucket:
    """A bucket whose band misses the matrix entirely must neither crash
    nor run the kernels."""

    def _off_matrix_center(self, n, m, band_w):
        # row i's band is [i + c - w, i + c + w]; c > m + w - 1 pushes every
        # DP row's band past the last window column.
        return m + band_w + 5

    def test_fixed_mode_returns_dead_pairs(self):
        """Without the escape hatch (``adaptive=False``) a dead bucket stays
        dead."""
        rng = np.random.default_rng(31)
        pwms, windows = random_batch(rng, b=2)
        n, m = pwms.shape[1], windows.shape[1]
        c = self._off_matrix_center(n, m, 3)
        assert BandSpec(n=n, m=m, center=c, width=3).n_cells() == 0
        with scope() as reg:
            out = align_batch_banded(
                pwms,
                windows,
                PARAMS,
                np.full(2, c, dtype=np.int64),
                band_w=3,
                adaptive=False,
            )
            counters = reg.snapshot().counters
        assert np.all(np.isneginf(out.loglik))
        assert np.all(out.z == 0.0)
        assert np.all(out.z.sum(axis=2) == 0.0)
        # the kernels were never entered for the dead bucket
        assert "phmm.cells_banded" not in counters
        assert counters.get("phmm.band_escapes", 0) == 0

    def test_adaptive_mode_escapes_whole_bucket(self):
        rng = np.random.default_rng(32)
        pwms, windows = random_batch(rng, b=3)
        n, m = pwms.shape[1], windows.shape[1]
        c = self._off_matrix_center(n, m, 2)
        full = align_batch(pwms, windows, PARAMS)
        with scope() as reg:
            out = align_batch_banded(
                pwms,
                windows,
                PARAMS,
                np.full(3, c, dtype=np.int64),
                band_w=2,
                tolerance=1e-4,
            )
            counters = reg.snapshot().counters
        assert counters.get("phmm.band_escapes", 0) == 3
        assert "phmm.cells_banded" not in counters
        assert np.array_equal(out.loglik, full.loglik)
        assert np.array_equal(out.z, full.z)

    def test_mixed_live_and_dead_buckets(self):
        """A dead bucket rides along with a live one; the live bucket's
        pairs are untouched by their dead batch-mates."""
        rng = np.random.default_rng(33)
        pwms, windows = random_batch(rng, b=4)
        n, m = pwms.shape[1], windows.shape[1]
        dead_c = self._off_matrix_center(n, m, 3)
        centers = np.array([m // 2, dead_c, m // 2, dead_c], dtype=np.int64)
        out = align_batch_banded(
            pwms, windows, PARAMS, centers, band_w=3, adaptive=False
        )
        live = np.array([0, 2])
        solo = align_batch_banded(
            pwms[live],
            windows[live],
            PARAMS,
            centers[live],
            band_w=3,
            adaptive=False,
        )
        assert np.array_equal(out.loglik[live], solo.loglik)
        assert np.array_equal(out.z[live], solo.z)
        assert np.all(np.isneginf(out.loglik[[1, 3]]))

    def test_empty_batch_is_a_no_op(self):
        out = align_batch_banded(
            np.zeros((0, 5, 4)),
            np.zeros((0, 9), dtype=np.uint8),
            PARAMS,
            np.zeros(0, dtype=np.int64),
            band_w=3,
        )
        assert out.z.shape == (0, 9, 5)
        assert out.loglik.shape == (0,)
        assert out.z.shape[1:] == (9, 5)


class TestValidation:
    def test_bad_centers_shape(self):
        rng = np.random.default_rng(0)
        pwms, windows = random_batch(rng, b=2)
        with pytest.raises(AlignmentError):
            align_batch_banded(
                pwms, windows, PARAMS, np.zeros(3, dtype=np.int64), band_w=3
            )

    def test_bad_band_width(self):
        rng = np.random.default_rng(0)
        pwms, windows = random_batch(rng, b=1)
        with pytest.raises(AlignmentError):
            align_batch_banded(
                pwms, windows, PARAMS, np.zeros(1, dtype=np.int64), band_w=0
            )

    def test_bad_groups_shape(self):
        """Rejected up front: with no escapes (wide band, default tolerance)
        and with the escape hatch off, not only when some pair happens to
        escape."""
        rng = np.random.default_rng(0)
        pwms, windows = random_batch(rng, b=2)
        for adaptive in (True, False):
            with pytest.raises(AlignmentError, match="groups"):
                align_batch_banded(
                    pwms,
                    windows,
                    PARAMS,
                    np.full(2, windows.shape[1] // 2, dtype=np.int64),
                    band_w=pwms.shape[1] + windows.shape[1],
                    adaptive=adaptive,
                    groups=np.zeros(5, dtype=np.int64),
                    escape_min_ratio=0.5,
                )

    def test_negative_window_code_rejected(self):
        """A signed -1 would index the N column, -3 would be scored as G."""
        rng = np.random.default_rng(0)
        pwms, windows = random_batch(rng, b=2)
        signed = windows.astype(np.int64)
        signed[1, 4] = -3
        with scope() as reg:
            with pytest.raises(AlignmentError, match="window codes"):
                align_batch_banded(
                    pwms, signed, PARAMS, np.full(2, 3, dtype=np.int64), band_w=3
                )
            assert reg.snapshot().histograms == {}

    def test_bad_valid_shape_rejected_before_the_fill(self):
        rng = np.random.default_rng(0)
        pwms, windows = random_batch(rng, b=2)
        with scope() as reg:
            with pytest.raises(AlignmentError, match="valid"):
                align_batch_banded(
                    pwms,
                    windows,
                    PARAMS,
                    np.zeros(2, dtype=np.int64),
                    band_w=3,
                    valid=np.ones((2, 3), dtype=bool),
                )
            assert "phmm.pairs" not in reg.snapshot().counters
