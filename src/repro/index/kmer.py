"""2-bit k-mer packing.

k-mers over ``ACGT`` pack into 2 bits per base, so any k <= 31 fits one
``int64``.  Windows containing ``N`` are unpackable and must be masked out by
the caller; :func:`rolling_kmers` returns a validity mask alongside the
packed values for exactly that reason.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_

#: Largest k that packs into a non-negative int64.
MAX_K = 31


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise IndexError_(f"k must be in [1, {MAX_K}], got {k}")


def rolling_kmers(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All packed k-mers of a sequence, vectorised.

    Returns ``(packed, valid)`` where ``packed[i]`` is the k-mer starting at
    position ``i`` (int64) and ``valid[i]`` is False when that window touches
    an N (its packed value is then meaningless).  For sequences shorter than
    ``k`` both arrays are empty.
    """
    _check_k(k)
    codes = np.asarray(codes)
    n = codes.size
    if n < k:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    # k shift-or passes over the codes, N (code 4) clamped to 0 so packing
    # stays in range; a window is valid when a prefix count of Ns shows none
    # inside it.
    is_n = codes > 3
    clamped = np.where(is_n, 0, codes).astype(np.int64)
    m = n - k + 1
    packed = clamped[:m].copy()
    for j in range(1, k):
        packed <<= 2
        packed |= clamped[j : j + m]
    n_seen = np.concatenate(([0], np.cumsum(is_n)))
    valid = n_seen[k:] == n_seen[:m]
    return packed, valid
