"""Work partitioners: reads across ranks, genome across ranks.

Read-spread mode ("shared memory" in Fig. 4) gives every rank the whole
genome and a disjoint slice of the reads; memory-spread mode gives every
rank a genome :class:`~repro.genome.reference.Segment` (from
``Reference.split``) and all the reads.  Both partitioners guarantee
*cover + disjoint*: every item lands on exactly one rank.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError


def partition_reads_contiguous(n_items: int, n_ranks: int) -> list[range]:
    """Contiguous near-equal slices (rank sizes differ by at most one) that
    tile ``0..n_items`` in order; a rank takes ``items[r.start:r.stop]``."""
    if n_ranks <= 0:
        raise PartitionError(f"n_ranks must be positive, got {n_ranks}")
    if n_items < 0:
        raise PartitionError(f"n_items must be non-negative, got {n_items}")
    bounds = np.linspace(0, n_items, n_ranks + 1).astype(np.int64)
    return [range(int(bounds[r]), int(bounds[r + 1])) for r in range(n_ranks)]
