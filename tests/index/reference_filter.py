"""NumPy oracle for the q-gram filter's counting.

This is the body ``Seeder._qgram_keep`` had before the counting moved into
the compiled module (``qgram_filter`` in ``repro/phmm/_lanes.c``), less its
genome-wide q-gram cache and its slicing of the windows into budget-sized
passes, neither of which changed a decision.  Its window bounds and
threshold arithmetic are the ones ``_qgram_keep`` still runs.
"""

from __future__ import annotations

import numpy as np

from repro.index.hashindex import gather_runs
from repro.index.kmer import rolling_kmers


def qgram_counts(
    reference: np.ndarray, codes: np.ndarray, lens: np.ndarray, c_seq: np.ndarray,
    lo: np.ndarray, hi: np.ndarray, q: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """``(own, matches)`` per window: its sequence's distinct q-gram count,
    and how many of those occur in ``reference[lo:hi]`` (0 where ``own`` is
    0 or the window holds no q-gram).  The block's ``(sequence, q-gram)``
    pairs are a bool membership table, each window's reference q-grams are
    tested against its sequence's row by one gather, and the hits are
    de-duplicated as ``window << 2q | q-gram`` keys."""
    seq_of = np.repeat(np.arange(lens.size), lens)
    packed, valid = rolling_kmers(codes, q)
    valid &= seq_of[: packed.size] == seq_of[q - 1 :]
    member = np.zeros((lens.size, 4**q), dtype=bool)
    member[seq_of[: packed.size][valid], packed[valid]] = True
    own = np.count_nonzero(member, axis=1)[c_seq]
    rows_in = hi - lo - q + 1
    scored = np.flatnonzero((own > 0) & (rows_in > 0))
    ref_packed, ref_valid = rolling_kmers(reference, q)
    ref_qgrams = np.where(ref_valid, ref_packed, -1)
    values, window = gather_runs(ref_qgrams, lo[scored], rows_in[scored])
    hit = np.flatnonzero(member[c_seq[scored][window], values] & (values >= 0))
    distinct = np.unique((window[hit] << (2 * q)) | values[hit])
    matches = np.zeros(c_seq.size, dtype=np.int64)
    matches[scored] = np.bincount(distinct >> (2 * q), minlength=scored.size)
    return own, matches


def qgram_keep(
    reference: np.ndarray, codes: np.ndarray, lens: np.ndarray, c_seq: np.ndarray,
    diagonal: np.ndarray, slack: int, threshold: float, q: int,
) -> np.ndarray:
    """Which windows' reference slices share enough distinct q-grams with
    their sequence (:func:`qgram_counts`) to keep their cluster."""
    lo = np.maximum(0, diagonal - slack)
    hi = np.minimum(reference.size, diagonal + lens[c_seq] + slack)
    own, matches = qgram_counts(reference, codes, lens, c_seq, lo, hi, q)
    keep = own == 0
    rows_in = hi - lo - q + 1
    scored = np.flatnonzero(~keep & (rows_in > 0))
    capacity = np.minimum(own, rows_in)[scored]
    needed = np.maximum(1, np.ceil(threshold * capacity).astype(np.int64))
    keep[scored] = matches[scored] >= needed
    return keep
