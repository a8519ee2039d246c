"""Work partitioners: reads across ranks, genome across ranks.

Read-spread mode ("shared memory" in Fig. 4) gives every rank the whole
genome and a disjoint slice of the reads; memory-spread mode gives every
rank a genome :class:`~repro.genome.reference.Segment` (from
``Reference.split``) and all the reads.  Both partitioners guarantee
*cover + disjoint*: every item lands on exactly one rank.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from repro.errors import PartitionError

T = TypeVar("T")


def partition_reads_contiguous(n_items: int, n_ranks: int) -> list[range]:
    """Contiguous near-equal slices (rank sizes differ by at most one)."""
    if n_ranks <= 0:
        raise PartitionError(f"n_ranks must be positive, got {n_ranks}")
    if n_items < 0:
        raise PartitionError(f"n_items must be non-negative, got {n_items}")
    bounds = np.linspace(0, n_items, n_ranks + 1).astype(np.int64)
    return [range(int(bounds[r]), int(bounds[r + 1])) for r in range(n_ranks)]


def take(items: Sequence[T], slice_range: range) -> list[T]:
    """Materialise a partition slice of a sequence."""
    return [items[i] for i in slice_range]


def validate_partition(parts: "list[range]", n_items: int) -> None:
    """Raise :class:`PartitionError` unless the ranges tile ``0..n_items``.

    Vectorised: each range is materialised once and scatter-counted with
    ``np.add.at``, so cover+disjoint validation stays cheap at genome-scale
    item counts (the old per-index Python loop was O(n_items) interpreter
    iterations per call).
    """
    seen = np.zeros(n_items, dtype=np.int64)
    for part in parts:
        if len(part) == 0:
            continue
        idx = np.arange(part.start, part.stop, part.step, dtype=np.int64)
        bad = (idx < 0) | (idx >= n_items)
        if bad.any():
            raise PartitionError(f"index {int(idx[bad][0])} out of range")
        np.add.at(seen, idx, 1)
    if (seen != 1).any():
        missing = int((seen == 0).sum())
        dup = int((seen > 1).sum())
        raise PartitionError(
            f"partition does not tile: {missing} missing, {dup} duplicated"
        )
