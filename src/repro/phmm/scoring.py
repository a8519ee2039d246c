"""Posterior mapping-score normalisation (GNUMAP's multiread treatment).

A read with several candidate locations contributes to *all* of them,
weighted by each location's share of the total alignment likelihood:

    w_c = L_c / sum_c' L_c'

computed in log space.  Locations whose likelihood is negligible relative to
the best (below ``min_ratio``) are dropped and the remainder renormalised —
this is both a compute saver and the paper's "all *high scoring* alignments"
qualifier.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlignmentError


def normalize_location_weights(
    logliks: np.ndarray,
    min_ratio: float = 1e-6,
) -> np.ndarray:
    """Normalised posterior weights for one read's candidate locations.

    Parameters
    ----------
    logliks:
        1-D array of per-candidate alignment log-likelihoods; ``-inf``
        entries (impossible alignments) get weight 0.
    min_ratio:
        Candidates with likelihood below ``min_ratio`` x best are zeroed
        before renormalisation.

    Returns
    -------
    Weights summing to 1 (or all-zero when every candidate is impossible).
    """
    logliks = np.asarray(logliks, dtype=np.float64)
    if logliks.ndim != 1:
        raise AlignmentError(f"logliks must be 1-D, got shape {logliks.shape}")
    if logliks.size == 0:
        return np.zeros(0)
    if not 0.0 <= min_ratio < 1.0:
        raise AlignmentError(f"min_ratio must be in [0, 1), got {min_ratio}")
    finite = np.isfinite(logliks)
    if not finite.any():
        return np.zeros_like(logliks)
    best = logliks[finite].max()
    rel = np.where(finite, np.exp(np.clip(logliks - best, -745.0, 0.0)), 0.0)
    if min_ratio > 0:
        rel[rel < min_ratio] = 0.0
    total = rel.sum()
    if total <= 0:  # pragma: no cover - best candidate always survives
        return np.zeros_like(logliks)
    return rel / total


def group_normalize(
    logliks: np.ndarray,
    group_ids: np.ndarray,
    min_ratio: float = 1e-6,
) -> np.ndarray:
    """Vectorised per-group weight normalisation.

    ``group_ids`` assigns each loglik to a read; weights are normalised
    within each group.  Groups must be contiguous (the batcher emits them
    that way); a non-contiguous grouping raises :class:`AlignmentError`.
    """
    logliks = np.asarray(logliks, dtype=np.float64)
    group_ids = np.asarray(group_ids)
    if logliks.shape != group_ids.shape or logliks.ndim != 1:
        raise AlignmentError("logliks and group_ids must be equal-length 1-D")
    if logliks.size == 0:
        return np.zeros(0)
    if not 0.0 <= min_ratio < 1.0:
        raise AlignmentError(f"min_ratio must be in [0, 1), got {min_ratio}")
    change = np.nonzero(np.diff(group_ids) != 0)[0] + 1
    starts = np.concatenate([[0], change])
    stops = np.concatenate([change, [logliks.size]])
    if np.unique(group_ids[starts]).size != starts.size:
        raise AlignmentError("group_ids must be contiguous per read")
    # A read's only candidate weighs exactly 1.0, or 0.0 when impossible;
    # the per-group arithmetic runs where there is something to share.
    out = np.isfinite(logliks).astype(np.float64)
    multi = stops - starts > 1
    for a, b in zip(starts[multi].tolist(), stops[multi].tolist()):
        out[a:b] = normalize_location_weights(logliks[a:b], min_ratio=min_ratio)
    return out
