"""Tests for read/genome partitioners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.parallel.partition import partition_reads_contiguous


def assert_tiles(parts: "list[range]", n_items: int) -> None:
    """Cover + disjoint, in order: the ranks' items concatenate to 0..n."""
    assert [i for part in parts for i in part] == list(range(n_items))


class TestContiguous:
    def test_tiles_exactly(self):
        parts = partition_reads_contiguous(10, 3)
        assert_tiles(parts, 10)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_ranks_than_items(self):
        parts = partition_reads_contiguous(2, 5)
        assert_tiles(parts, 2)
        assert sum(len(p) for p in parts) == 2

    def test_empty_items(self):
        parts = partition_reads_contiguous(0, 3)
        assert all(len(p) == 0 for p in parts)

    def test_validation(self):
        with pytest.raises(PartitionError):
            partition_reads_contiguous(5, 0)
        with pytest.raises(PartitionError):
            partition_reads_contiguous(-1, 2)


@settings(max_examples=50, deadline=None)
@given(
    n_items=st.integers(min_value=0, max_value=500),
    n_ranks=st.integers(min_value=1, max_value=40),
)
def test_cover_disjoint_property(n_items, n_ranks):
    assert_tiles(partition_reads_contiguous(n_items, n_ranks), n_items)
