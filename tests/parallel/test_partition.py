"""Tests for read/genome partitioners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.parallel.partition import (
    partition_reads_contiguous,
    take,
    validate_partition,
)


class TestContiguous:
    def test_tiles_exactly(self):
        parts = partition_reads_contiguous(10, 3)
        validate_partition(parts, 10)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_ranks_than_items(self):
        parts = partition_reads_contiguous(2, 5)
        validate_partition(parts, 2)
        assert sum(len(p) for p in parts) == 2

    def test_empty_items(self):
        parts = partition_reads_contiguous(0, 3)
        assert all(len(p) == 0 for p in parts)

    def test_validation(self):
        with pytest.raises(PartitionError):
            partition_reads_contiguous(5, 0)
        with pytest.raises(PartitionError):
            partition_reads_contiguous(-1, 2)


class TestHelpers:
    def test_take(self):
        items = list("abcdef")
        assert take(items, range(1, 4)) == ["b", "c", "d"]

    def test_validate_rejects_overlap(self):
        with pytest.raises(PartitionError, match="duplicated"):
            validate_partition([range(0, 3), range(2, 5)], 5)

    def test_validate_rejects_gap(self):
        with pytest.raises(PartitionError, match="missing"):
            validate_partition([range(0, 2), range(3, 5)], 5)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(PartitionError, match="out of range"):
            validate_partition([range(0, 6)], 5)

    def test_validate_rejects_negative_index(self):
        with pytest.raises(PartitionError, match="out of range"):
            validate_partition([range(-1, 4), range(4, 5)], 5)

    def test_validate_accepts_strided_tiling(self):
        # Strided ranges tile without materialising a contiguous block —
        # the vectorised path must handle step > 1.
        validate_partition([range(0, 10, 2), range(1, 10, 2)], 10)

    def test_validate_empty_ranges_ignored(self):
        validate_partition([range(0, 5), range(5, 5), range(5, 5)], 5)

    def test_validate_scales_to_large_counts(self):
        n = 500_000
        validate_partition(partition_reads_contiguous(n, 7), n)


@settings(max_examples=50, deadline=None)
@given(
    n_items=st.integers(min_value=0, max_value=500),
    n_ranks=st.integers(min_value=1, max_value=40),
)
def test_cover_disjoint_property(n_items, n_ranks):
    validate_partition(partition_reads_contiguous(n_items, n_ranks), n_items)
