"""Histogram metric: merge algebra, bucket boundaries, quantiles.

Scalars and arrays share one bucketing path (``Histogram.record``), so the
boundary tests read the bucket a value lands in off a recorded histogram.

The merge algebra must be associative and commutative with the empty
histogram as identity — it is what lets worker snapshots fold in any
order.  Bucket counts, totals and extrema merge *exactly*; only ``sum``
is compared approximately (float addition order).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.observability import MetricsRegistry, to_json
from repro.observability.histogram import (
    GROWTH,
    ZERO_BUCKET,
    Histogram,
    bucket_upper,
    merge_histogram_dicts,
)

values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(values, max_size=30)


def build(vals):
    h = Histogram()
    for v in vals:
        h.record(v)
    return h


def bucket_index(value):
    """The bucket ``Histogram.record`` puts ``value`` in."""
    (idx,) = build([value]).buckets
    return idx


def assert_equivalent(a: Histogram, b: Histogram):
    assert a.buckets == b.buckets
    assert a.count == b.count
    assert a.total == pytest.approx(b.total, abs=1e-6, rel=1e-9)
    if a.count:
        assert (a.vmin, a.vmax) == (b.vmin, b.vmax)


class TestBucketBoundaries:
    def test_exact_powers_land_in_their_own_bucket(self):
        # GROWTH**k is the inclusive *upper* bound of bucket k.
        for k in range(-40, 41):
            assert bucket_index(GROWTH**k) == k

    def test_interval_is_lower_exclusive_upper_inclusive(self):
        for k in (-8, -1, 0, 1, 13):
            upper = bucket_upper(k)
            assert bucket_index(upper) == k
            assert bucket_index(upper * 1.001) == k + 1
            assert bucket_index(bucket_upper(k - 1) * 1.001) == k

    def test_nonpositive_and_nan_go_to_zero_bucket(self):
        assert bucket_index(0.0) == ZERO_BUCKET
        assert bucket_index(-3.5) == ZERO_BUCKET
        assert bucket_index(float("nan")) == ZERO_BUCKET
        assert bucket_upper(ZERO_BUCKET) == 0.0

    def test_one_lands_in_bucket_zero(self):
        assert bucket_index(1.0) == 0

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_value_always_within_its_bucket(self, v):
        idx = bucket_index(v)
        # Snap tolerance: the bounds hold up to ~1e-9 relative noise.
        assert bucket_upper(idx - 1) * (1 - 1e-9) <= v <= bucket_upper(idx) * (1 + 1e-9)

    @given(value_lists)
    def test_vectorised_bucketing_matches_scalar(self, vals):
        h_scalar = build(vals)
        h_vec = Histogram()
        h_vec.record(np.asarray(vals, dtype=np.float64))
        assert_equivalent(h_scalar, h_vec)

    def test_observe_and_observe_array_agree_and_json_stays_finite(self):
        xs = (-1.0, 0.0, 1e-300, 1.0, math.inf, -math.inf, math.nan)
        scalar, vector = MetricsRegistry(), MetricsRegistry()
        for i, x in enumerate(xs):
            scalar.observe(f"h{i}", x)
            vector.observe_array(f"h{i}", [x])
        assert scalar.snapshot().histograms == vector.snapshot().histograms
        for i in (4, 5, 6):  # non-finite values are recorded as 0.0
            assert scalar.snapshot().histograms[f"h{i}"] == build([0.0]).as_dict()

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        doc = json.loads(to_json(scalar.snapshot()), parse_constant=reject)
        assert doc["histograms"]["h6"]["p50"] == 0.0


class TestMergeAlgebra:
    @settings(max_examples=60)
    @given(value_lists, value_lists)
    def test_commutative(self, xs, ys):
        ab = build(xs)
        ab.merge(build(ys))
        ba = build(ys)
        ba.merge(build(xs))
        assert_equivalent(ab, ba)

    @settings(max_examples=60)
    @given(value_lists, value_lists, value_lists)
    def test_associative(self, xs, ys, zs):
        left = build(xs)
        bc = build(ys)
        bc.merge(build(zs))
        left.merge(bc)  # a + (b + c)
        right = build(xs)
        right.merge(build(ys))
        right.merge(build(zs))  # (a + b) + c
        assert_equivalent(left, right)

    @given(value_lists)
    def test_empty_is_identity(self, xs):
        h = build(xs)
        h.merge(Histogram())
        assert_equivalent(h, build(xs))

    @given(value_lists, value_lists)
    def test_merge_equals_union_recording(self, xs, ys):
        merged = build(xs)
        merged.merge(build(ys))
        assert_equivalent(merged, build(xs + ys))

    def test_dict_merge_roundtrip(self):
        a, b = build([1.0, 2.0]), build([0.0, 8.0])
        combined = Histogram.from_dict(
            merge_histogram_dicts(a.as_dict(), b.as_dict())
        )
        expected = build([1.0, 2.0, 0.0, 8.0])
        assert_equivalent(combined, expected)


class TestQuantiles:
    def test_empty_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))

    def test_quantile_clamped_to_observed_range(self):
        h = build([3.0] * 100)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 3.0

    def test_quantiles_are_monotone_and_bucket_accurate(self):
        h = build([0.1] * 50 + [1.0] * 40 + [10.0] * 10)
        p50, p90, p99 = h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)
        assert p50 <= p90 <= p99
        assert p50 == pytest.approx(0.1, rel=GROWTH - 1)
        assert p90 == pytest.approx(1.0, rel=GROWTH - 1)
        assert p99 == pytest.approx(10.0, rel=GROWTH - 1)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ObservabilityError):
            build([1.0]).quantile(1.5)


class TestCodecAndValidation:
    def test_as_dict_from_dict_roundtrip(self):
        h = build([0.5, 0.0, 123.4])
        assert Histogram.from_dict(h.as_dict()) == h

    def test_from_dict_accepts_json_string_bucket_keys(self):
        h = build([2.0])
        d = h.as_dict()
        d["buckets"] = {str(k): v for k, v in d["buckets"].items()}
        assert Histogram.from_dict(d) == h

    def test_malformed_dict_rejected(self):
        for data in (
            {"count": 1, "buckets": {"x.y": 1}},
            {"count": 3, "buckets": {}},  # buckets do not sum to count
            {"count": 0, "buckets": {"1": 2, "2": -2}},  # a negative bucket
        ):
            with pytest.raises(ObservabilityError, match="malformed histogram"):
                Histogram.from_dict(data)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram().record(1.0, count=0)
