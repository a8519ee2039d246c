"""Tests for the high-level alignment API (windows, batching, masking)."""

from unittest import mock

import numpy as np
import pytest

from repro.errors import AlignmentError
from repro.observability import scope
from repro.genome.alphabet import N as CODE_N
from repro.phmm import alignment
from repro.phmm.alignment import align_batch, align_batch_banded, build_windows
from repro.phmm.model import PHMMParams
from repro.phmm.pwm import pwm_from_codes

PARAMS = PHMMParams()


class TestBuildWindows:
    def test_interior(self):
        genome = np.arange(10, dtype=np.uint8) % 4
        windows, valid = build_windows(genome, np.array([2, 3]), 4)
        assert windows.shape == (2, 4)
        assert (windows[0] == genome[2:6]).all()
        assert valid.all()

    def test_left_edge_padded_with_n(self):
        genome = np.zeros(10, dtype=np.uint8)
        windows, valid = build_windows(genome, np.array([-3]), 5)
        assert (windows[0, :3] == CODE_N).all()
        assert valid[0].tolist() == [False, False, False, True, True]

    def test_right_edge_padded(self):
        genome = np.zeros(10, dtype=np.uint8)
        windows, valid = build_windows(genome, np.array([8]), 5)
        assert valid[0].tolist() == [True, True, False, False, False]
        assert (windows[0, 2:] == CODE_N).all()

    def test_validation(self):
        genome = np.zeros(10, dtype=np.uint8)
        with pytest.raises(AlignmentError):
            build_windows(genome, np.array([0]), 0)
        with pytest.raises(AlignmentError):
            build_windows(genome, np.zeros((2, 2)), 3)


class TestAlignBatch:
    def test_valid_mask_zeroes_pad_columns(self):
        rng = np.random.default_rng(1)
        genome = rng.integers(0, 4, 50).astype(np.uint8)
        n = 12
        codes = genome[:n].copy()
        pwm = pwm_from_codes(codes, np.full(n, 0.01))
        # window hangs off the left edge by 4
        windows, valid = build_windows(genome, np.array([-4]), n + 8)
        out = align_batch(pwm[None], windows, PARAMS, valid=valid)
        assert np.allclose(out.z[0, :4], 0.0)

    def test_pinned_kernel_keywords_are_single_valued(self):
        codes = np.arange(5, dtype=np.uint8) % 4
        pwm = pwm_from_codes(codes, np.full(5, 0.01))
        align_batch(pwm[None], codes[None], PARAMS, kernel="rowsweep", dtype="float64")
        for bad in ({"kernel": "diagonal"}, {"dtype": "float16"}):
            with pytest.raises(AlignmentError):
                align_batch(pwm[None], codes[None], PARAMS, **bad)
            with pytest.raises(AlignmentError):
                align_batch_banded(
                    pwm[None], codes[None], PARAMS, np.zeros(1), band_w=3, **bad
                )

    def test_global_mode_is_gone(self):
        """The paper-literal global boundary convention was deleted; the
        ``mode=`` keyword accepts only the semiglobal one."""
        codes = np.arange(5, dtype=np.uint8) % 4
        pwm = pwm_from_codes(codes, np.full(5, 0.01))
        align_batch(pwm[None], codes[None], PARAMS, mode="semiglobal")
        with pytest.raises(AlignmentError):
            align_batch(pwm[None], codes[None], PARAMS, mode="global")
        with pytest.raises(AlignmentError):
            align_batch_banded(
                pwm[None], codes[None], PARAMS, np.zeros(1), band_w=3, mode="global"
            )

    def test_mask_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 4, 5).astype(np.uint8)
        pwm = pwm_from_codes(codes, np.full(5, 0.01))
        with pytest.raises(AlignmentError):
            align_batch(
                pwm[None],
                codes[None],
                PARAMS,
                valid=np.ones((1, 99), dtype=bool),
            )

    @pytest.mark.parametrize(
        "pwms, windows, valid",
        [
            (np.full((3, 4), 0.25), np.zeros(5, dtype=np.uint8), None),
            (np.full((2, 3, 4), 0.25), np.zeros((3, 5), dtype=np.uint8), None),
            (np.full((2, 3, 4), 0.25), np.full((2, 5), 7, dtype=np.uint8), None),
            (np.full((2, 3, 4), 0.25), np.zeros((2, 5), dtype=np.uint8), np.ones((2, 4))),
        ],
        ids=["unbatched", "batch-mismatch", "code-7", "valid-shape"],
    )
    def test_malformed_batch_is_a_typed_error_without_side_effects(
        self, pwms, windows, valid
    ):
        """Rejected up front: no IndexError from an unvalidated shape, and
        nothing observed into ``phmm.pair_cells`` for a batch never aligned."""
        with scope() as reg:
            with pytest.raises(AlignmentError):
                align_batch(pwms, windows, PARAMS, valid=valid)
            snap = reg.snapshot()
        assert snap.histograms == {} and snap.counters == {}

    @pytest.mark.parametrize(
        "n_pairs, tile, widths",
        [(5, 2, {2.0: 2, 1.0: 1}), (6, 4, {3.0: 2}), (3, 256, {3.0: 1})],
    )
    def test_tile_lanes_counts_tiles_by_width(self, n_pairs, tile, widths):
        """One observation per tile width per call, weighted by tiles of it:
        equal tiles first, then a narrower last one."""
        rng = np.random.default_rng(5)
        pwms = np.stack([pwm_from_codes(rng.integers(0, 4, 6), np.full(6, 0.02))] * n_pairs)
        windows = rng.integers(0, 4, (n_pairs, 9)).astype(np.uint8)
        with scope() as reg, mock.patch.object(alignment, "LANE_TILE", tile):
            align_batch(pwms, windows, PARAMS)
            hist = reg.snapshot().histogram("phmm.tile_lanes")
        assert hist["count"] == sum(widths.values())
        assert hist["sum"] == sum(w * n for w, n in widths.items())
        assert (hist["min"], hist["max"]) == (min(widths), max(widths))

    def test_equivalent_pairs_equal_outputs(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, 8).astype(np.uint8)
        pwm = pwm_from_codes(codes, np.full(8, 0.02))
        window = rng.integers(0, 4, 12).astype(np.uint8)
        out = align_batch(np.stack([pwm, pwm]), np.stack([window, window]), PARAMS)
        assert np.allclose(out.z[0], out.z[1])
        assert out.loglik[0] == pytest.approx(out.loglik[1])

    def test_true_location_scores_best(self):
        rng = np.random.default_rng(4)
        genome = rng.integers(0, 4, 400).astype(np.uint8)
        pos, n, pad = 100, 30, 6
        codes = genome[pos : pos + n].copy()
        pwm = pwm_from_codes(codes, np.full(n, 0.005))
        starts = np.array([pos - pad, 250 - pad])
        windows, valid = build_windows(genome, starts, n + 2 * pad)
        out = align_batch(np.stack([pwm, pwm]), windows, PARAMS, valid=valid)
        assert out.loglik[0] > out.loglik[1] + 20

    def test_z_accumulates_at_true_bases(self):
        rng = np.random.default_rng(5)
        genome = rng.integers(0, 4, 200).astype(np.uint8)
        pos, n, pad = 80, 25, 5
        codes = genome[pos : pos + n].copy()
        pwm = pwm_from_codes(codes, np.full(n, 0.005))
        windows, valid = build_windows(genome, np.array([pos - pad]), n + 2 * pad)
        out = align_batch(pwm[None], windows, PARAMS, valid=valid)
        # window column j corresponds to genome position pos - pad + j
        for j in range(pad, pad + n):
            g = pos - pad + j
            assert out.z[0, j, int(genome[g])] > 0.85
