"""Tests for multiread mapping-weight normalisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlignmentError
from repro.phmm.scoring import group_normalize, normalize_location_weights


class TestNormalizeLocationWeights:
    def test_sums_to_one(self):
        w = normalize_location_weights(np.array([-10.0, -11.0, -12.0]))
        assert w.sum() == pytest.approx(1.0)
        assert w[0] > w[1] > w[2]

    def test_equal_likelihoods_split_evenly(self):
        w = normalize_location_weights(np.array([-5.0, -5.0]), min_ratio=0)
        assert np.allclose(w, 0.5)

    def test_ratio_matches_likelihoods(self):
        w = normalize_location_weights(np.array([0.0, np.log(0.25)]), min_ratio=0)
        assert w[0] / w[1] == pytest.approx(4.0)

    def test_min_ratio_drops_weak(self):
        w = normalize_location_weights(np.array([0.0, -100.0]), min_ratio=1e-6)
        assert w[1] == 0.0
        assert w[0] == pytest.approx(1.0)

    def test_infinite_dropped(self):
        w = normalize_location_weights(np.array([-3.0, -np.inf]))
        assert w.tolist() == [1.0, 0.0]

    def test_all_impossible_zero(self):
        w = normalize_location_weights(np.array([-np.inf, -np.inf]))
        assert (w == 0).all()

    def test_huge_magnitudes_no_overflow(self):
        w = normalize_location_weights(np.array([-5000.0, -5001.0]))
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0)

    def test_empty(self):
        assert normalize_location_weights(np.array([])).size == 0

    def test_validation(self):
        with pytest.raises(AlignmentError):
            normalize_location_weights(np.zeros((2, 2)))
        with pytest.raises(AlignmentError):
            normalize_location_weights(np.array([0.0]), min_ratio=1.5)


class TestGroupNormalize:
    def test_per_group_sums(self):
        logliks = np.array([-1.0, -2.0, -3.0, -1.0, -1.0])
        groups = np.array([0, 0, 0, 1, 1])
        w = group_normalize(logliks, groups, min_ratio=0)
        assert w[:3].sum() == pytest.approx(1.0)
        assert w[3:].sum() == pytest.approx(1.0)
        assert np.allclose(w[3:], 0.5)

    def test_single_group(self):
        w = group_normalize(np.array([-1.0, -1.0]), np.array([7, 7]), min_ratio=0)
        assert np.allclose(w, 0.5)

    def test_non_contiguous_rejected(self):
        with pytest.raises(AlignmentError, match="contiguous"):
            group_normalize(np.zeros(3), np.array([0, 1, 0]))

    def test_empty(self):
        assert group_normalize(np.array([]), np.array([])).size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            group_normalize(np.zeros(3), np.zeros(2))

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(0)
        logliks = rng.uniform(-30, -5, 10)
        groups = np.array([0] * 4 + [1] * 6)
        w = group_normalize(logliks, groups)
        assert np.allclose(w[:4], normalize_location_weights(logliks[:4]))
        assert np.allclose(w[4:], normalize_location_weights(logliks[4:]))


@st.composite
def grouped_logliks(draw):
    """Contiguous groups of 1-40 candidates (singletons common, as in the
    pipeline; >= 8 members reaches NumPy's pairwise summation), with
    ``-inf`` members and all-``-inf`` groups."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sizes = draw(
        st.lists(
            st.one_of(st.just(1), st.integers(min_value=1, max_value=40)),
            min_size=1,
            max_size=12,
        )
    )
    logliks = rng.uniform(-60.0, -1.0, sum(sizes))
    dead = draw(st.sampled_from([0.0, 0.2, 1.0]))
    logliks[rng.random(logliks.size) < dead] = -np.inf
    ids = rng.permutation(len(sizes) + 5)[: len(sizes)]  # distinct, unsorted
    return logliks, np.repeat(ids, sizes), sizes


class TestGroupNormalizeAgainstPerGroupOracle:
    @settings(max_examples=200, deadline=None)
    @given(grouped_logliks(), st.sampled_from([0.0, 1e-6, 1e-2, 0.5]))
    def test_bitwise_equal_to_per_group_calls(self, case, min_ratio):
        logliks, groups, sizes = case
        want = np.concatenate(
            [
                normalize_location_weights(part, min_ratio=min_ratio)
                for part in np.split(logliks, np.cumsum(sizes)[:-1])
            ]
        )
        np.testing.assert_array_equal(
            group_normalize(logliks, groups, min_ratio=min_ratio), want
        )

    def test_all_dead_large_group_and_nan(self):
        logliks = np.array([-np.inf] * 9 + [np.nan] + [-3.0])
        groups = np.array([4] * 9 + [2] + [7])
        np.testing.assert_array_equal(
            group_normalize(logliks, groups), np.array([0.0] * 10 + [1.0])
        )

    def test_validation_does_not_depend_on_group_sizes(self):
        """All-singleton input never reaches the per-group call, which used
        to be where ``min_ratio`` and contiguity were checked."""
        singles = np.arange(4)
        with pytest.raises(AlignmentError, match="min_ratio"):
            group_normalize(np.zeros(4), singles, min_ratio=1.5)
        with pytest.raises(AlignmentError, match="min_ratio"):
            group_normalize(np.zeros(4), singles, min_ratio=-0.1)
        with pytest.raises(AlignmentError, match="contiguous"):
            group_normalize(np.zeros(4), np.array([0, 1, 2, 0]))
        with pytest.raises(AlignmentError, match="contiguous"):
            group_normalize(np.zeros(5), np.array([3, 3, 1, 3, 3]))
